"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload dse-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one table each

Each workload runs in fresh processes whose environment pins
``OMP/OPENBLAS/MKL/NUMEXPR_NUM_THREADS`` to 1 before numpy loads.  Set-up is
timed in several fresh interpreters (``SETUPS``), from process start to a
ready ``Session``; the last of them goes on to run the timed closed loop
while this process samples the resident memory of its process tree.

Times are reported in reference-host seconds: each host time is divided
by the host's speed factor, measured with a fixed calibration kernel timed
between requests (see ``workload.Calibration``); the tables also show the
raw host values.  Human-readable tables go to standard output; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run (raw host seconds) with ``--trace 1``.  Besides
Python's bytecode caches the benchmark writes only its scratch directory
``.perfbench-work`` in the repository, which it removes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import spans, stats, streams  # noqa: E402

WORKLOAD_SCRIPT = Path(__file__).resolve().parent / "workload.py"

#: Tail percentile of each workload's warm requests: the highest standard
#: percentile that leaves at least ten samples beyond it at the workload's
#: usual sample count (about 50, 850 and 60 warm requests per run).
TAIL_RANK = {"paper-cold": 75.0, "dse-warm": 95.0, "tiered-pool": 75.0}

#: Fresh interpreters whose set-up is timed per run; the last one runs the loop.
SETUPS = 5

#: A run that has not finished by then is killed and reports no result.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_p50_s": "s",
    "warm_p50_s": "s",
    "warm_tail_s": "s",
    "sim_macs_per_s": "MAC/s",
    "peak_rss_mb": "MB",
    "cache_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """A workload process failed or overran; the run has no result."""


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in streams.PIN_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------------- #
# Process-tree memory
# ---------------------------------------------------------------------- #
def _tree(pid: int) -> list[int]:
    """``pid`` and its live descendants (Linux ``/proc``)."""
    found, pending = [], [pid]
    while pending:
        current = pending.pop()
        found.append(current)
        try:
            for task in os.listdir("/proc/%d/task" % current):
                with open("/proc/%d/task/%s/children" % (current, task)) as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb(pid: int) -> float:
    """Resident MB from ``statm``, which reads counters without locking the address space."""
    try:
        with open("/proc/%d/statm" % pid) as handle:
            return int(handle.read().split()[1]) * _PAGE_MB
    except (OSError, IndexError, ValueError):
        return 0.0


class TreeMemory(threading.Thread):
    """Samples the summed RSS of a process tree until stopped."""

    def __init__(self, pid: int, interval: float = 0.05):
        super().__init__(daemon=True)
        self.pid = pid
        self.interval = interval
        self.peak_mb = 0.0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            self.peak_mb = max(self.peak_mb, sum(_rss_mb(pid) for pid in _tree(self.pid)))
            self._stop_event.wait(self.interval)

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        return self.peak_mb


# ---------------------------------------------------------------------- #
# Workload processes
# ---------------------------------------------------------------------- #
def launch(args, role: str, index: int, work: Path, deadline: float,
           cold_digests: dict | None = None) -> tuple[float, dict, float]:
    """Start one workload process; return ``(set-up seconds, its result, tree peak MB)``."""
    command = [
        sys.executable, str(WORKLOAD_SCRIPT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--index", str(index), "--work-dir", str(work),
    ]
    if cold_digests:
        command += ["--cold-digests", json.dumps(cold_digests)]
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=pinned_env(),
                               cwd=ROOT, text=True, start_new_session=True)
    memory = TreeMemory(process.pid) if role == "main" else None
    if memory is not None:
        memory.start()
    lines: list[str] = []
    ready: dict[str, float] = {}
    reader = threading.Thread(target=_read_lines, args=(process, start, lines, ready),
                              daemon=True)
    reader.start()
    try:
        process.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise BenchmarkError("%s %s overran the %ds deadline" % (args.workload, role, DEADLINE_S))
    finally:
        peak = memory.stop() if memory is not None else 0.0
        reader.join()
        _reap(process.pid)
    if process.returncode != 0 or "s" not in ready or not lines:
        raise BenchmarkError("%s %s exited with code %s"
                             % (args.workload, role, process.returncode))
    return ready["s"], json.loads(lines[-1]), peak


def _read_lines(process, start: float, lines: list, ready: dict) -> None:
    """Collect the output lines; note when ``READY`` arrived."""
    for line in process.stdout:
        line = line.strip()
        if line == "READY":
            ready["s"] = time.perf_counter() - start
        elif line:
            lines.append(line)


def _reap(group: int) -> None:
    """Kill whatever the workload's process group left behind (stray pool workers)."""
    try:
        os.killpg(group, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_workload(args) -> dict:
    """Set up ``SETUPS`` times, run the loop in the last process, assemble the result."""
    deadline = time.perf_counter() + DEADLINE_S
    work = ROOT / ".perfbench-work" / ("%d-%s" % (os.getpid(), args.workload))
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups, probes = [], []
        cold_digests: dict = {}
        # A traced run reports no set-up time, so it sets up once.
        for index in range(SETUPS - 1 if not args.trace else 0):
            ready_s, result, _ = launch(args, "probe", index, work, deadline)
            setups.append((ready_s, result["setup_factor"]))
            probes.append(result)
            cold_digests.update(result["cold_digests"])
        ready_s, main, peak = launch(args, "main", SETUPS - 1, work, deadline, cold_digests)
        setups.append((ready_s, main["setup_factor"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's scratch directory is still there
    runs = probes + [main]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    errors = [error for run in runs for error in run["errors"]]
    pins = [run["pin"] for run in runs]
    # Loop requests come scaled to reference-host seconds by the kernel block
    # timed after them; set-up times (with the dse-warm warming runs) by the
    # block each process times right after its set-up.
    setup = [ready_s / factor for ready_s, factor in setups]
    host_setup = [ready_s for ready_s, _ in setups]
    setup_cold = [t for run in runs for t in run["setup_cold_s"]]
    cold = main["cold_s"] + [t / run["setup_factor"] for run in runs for t in run["setup_cold_s"]]
    host_cold = main["host_cold_s"] + setup_cold
    warm, host_warm = main["warm_s"], main["host_warm_s"]
    report = {
        "correct": failed == 0 and all(pin["held"] for pin in pins),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "pin": main["pin"],
    }
    if args.trace:
        report["metrics"] = {
            name: (value, unit, main["per_layer"]["trace.requests"], value)
            for name, unit in spans.PER_LAYER_UNITS.items()
            for value in [main["per_layer"][name]]
        }
        return report
    tail_value, tail_rank, beyond = stats.tail(warm, TAIL_RANK[args.workload])
    macs = main["macs"]
    rss = max(peak, main["ru_maxrss_mb"])
    cache = stats.median(main["cache_mb"])
    report["metrics"] = {
        "setup_s": (stats.median(setup), "s", len(setup), stats.median(host_setup)),
        "cold_p50_s": (stats.median(cold), "s", len(cold), stats.median(host_cold)),
        "warm_p50_s": (stats.median(warm), "s", len(warm), stats.median(host_warm)),
        "warm_tail_s": (tail_value, "s", len(warm), stats.percentile(host_warm, tail_rank)[0]),
        "sim_macs_per_s": (macs / main["counted_s"], "MAC/s", main["counted"],
                           macs / main["counted_host_s"]),
        "peak_rss_mb": (rss, "MB", 1, rss),
        "cache_mb": (cache, "MB", len(main["cache_mb"]), cache),
    }
    report["speed_factor"] = (main["speed_factor"], main["calibration_samples"])
    report["tail"] = (tail_rank, beyond)
    report["failed_frac"] = failed / attempted
    return report


def print_report(args, report: dict) -> None:
    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("  %-44s %14s  %-6s %6s %14s" % ("metric", "value", "unit", "n", "host value"))
    for name, (value, unit, count, host) in report["metrics"].items():
        note = ""
        if name == "warm_tail_s":
            note = "  p%g, %d samples beyond" % report["tail"]
        print("  %-44s %14.6g  %-6s %6d %14.6g%s" % (name, value, unit, count, host, note))
    if not args.trace:
        print("  %-44s %14.6g  %-6s %6d" % ("failed_frac", report["failed_frac"], "ratio",
                                             report["attempted"]))
        print("  %-44s %14.6g  %-6s %6d  (host seconds per reference-host second)"
              % ("speed_factor", report["speed_factor"][0], "ratio",
                 report["speed_factor"][1]))
    pin = report["pin"]
    print("  pin: %s  threads after numpy: %s  held: %s"
          % (" ".join("%s=%s" % (var, pin[var]) for var in streams.PIN_VARS),
             pin["threads_after_numpy"], pin["held"]))
    for error in report["errors"][:10]:
        print("  FAILED: %s" % error)


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in report["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=streams.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=streams.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = streams.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        args.workload = name
        try:
            report = run_workload(args)
        except BenchmarkError as exc:
            print("benchmark failed: %s" % exc, file=sys.stderr)
            return 1
        print_report(args, report)
        lines[name] = result_line(report)
    if len(names) == 1:
        print(lines[names[0]])
    else:
        print(json.dumps({name: json.loads(line) for name, line in lines.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
