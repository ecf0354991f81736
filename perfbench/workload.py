"""One benchmark workload in one process: set-up, the closed loop, the checks.

Started by ``run.py`` with the BLAS thread variables already pinned::

    python3 perfbench/workload.py --workload dse-warm --seed 1 --seconds 20 \
        --trace 0 --role main --work-dir .perfbench-work/x

``--role probe`` only sets up (and, for ``dse-warm``, makes the warming cold
run) and exits; ``--role main`` also runs the timed loop.  Either prints
``READY`` when its ``Session`` is ready and one JSON object as its last
line.  ``--record-digests`` recomputes ``reference_digests.json`` for the
default seed.

All workloads are closed loops: one client sends the next request when the
previous reply arrived.  Every request is ``Session.run("networks", ...)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

#: Close to interpreter start: set-up time is measured from here.
STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import spans, streams  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"

#: LRU-served re-runs after each ``paper-cold`` cold request.  They give the
#: workload its warm metrics; its throughput counts the cold requests only.
PAPER_WARM_RERUNS = 15
#: Disk reloads after each ``tiered-pool`` populate request.
POOL_RELOADS = 6
#: Distinct tensor seeds the ``tiered-pool`` cycles rotate over.
POOL_SEEDS = 2
POOL_WORKERS = 2
#: Share of the loop's request time spent timing the calibration kernel.
CALIBRATION_SHARE = 0.05
#: Median calibration-kernel time on the reference host (2-vCPU Xeon, pinned BLAS).
REFERENCE_KERNEL_S = 0.0032


def payload_digest(result) -> str:
    """SHA-256 prefix of the result's payload in its versioned JSON form."""
    payload = json.loads(result.to_json())["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:24]


def pin_state() -> dict:
    """The thread variables in effect and the threads alive after numpy loaded."""
    state = {var: os.environ.get(var) for var in streams.PIN_VARS}
    import numpy  # noqa: F401  -- loads the BLAS thread pool

    task_dir = Path("/proc/self/task")
    threads = len(os.listdir(task_dir)) if task_dir.is_dir() else None
    state["threads_after_numpy"] = threads
    state["held"] = all(state[var] == "1" for var in streams.PIN_VARS) and threads in (1, None)
    return state


def array_mb(root) -> float:
    """MB of numpy array and bytes buffers reachable from ``root`` (each counted once)."""
    import numpy as np

    seen: set[int] = set()
    total = 0
    pending = [root]
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if isinstance(obj.base, (np.ndarray, bytes)):
                pending.append(obj.base)
            else:
                total += obj.nbytes
        elif isinstance(obj, (bytes, bytearray)):
            total += len(obj)
        elif isinstance(obj, dict):
            pending.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            pending.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            pending.extend(vars(obj).values())
    return total / 1e6


class Calibration:
    """Host speed during the loop, from a fixed kernel timed between requests.

    On a shared host the speed drifts by up to 1.5x within a minute, and the
    drift moves every timing taken meanwhile alike.  The kernel --
    interpreter arithmetic, a small BLAS product and a sort, like the
    program's own mix -- never touches ``repro``, so a block of kernel runs
    measures the host alone: its median over :data:`REFERENCE_KERNEL_S` is
    the speed factor of the requests timed just before it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.random((200, 200))
        self.vector = rng.random(20000)
        self.samples: list[float] = []

    def kernel(self) -> float:
        import numpy as np

        start = time.perf_counter()
        total = 0
        for value in range(20000):
            total += value * value
        for _ in range(5):
            self.matrix @ self.matrix
        np.sort(self.vector)
        return time.perf_counter() - start

    def block(self, budget: float) -> float:
        """Time kernels for ``budget`` seconds (at least three); return the block's speed factor."""
        from statistics import median

        block = []
        while len(block) < 3 or sum(block) < budget:
            block.append(self.kernel())
        self.samples.extend(block)
        return median(block) / REFERENCE_KERNEL_S

    def factor(self) -> float:
        """The speed factor over every block of the run."""
        from statistics import median

        return median(self.samples) / REFERENCE_KERNEL_S if self.samples else 1.0


class Loop:
    """State of one workload process: requests made, samples and checks."""

    def __init__(self, args, tracer):
        import repro
        from repro.api import Session
        from repro.engine import clear_default_cache, default_cache

        if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError("repro imported from %s, not from this checkout" % repro.__file__)

        self.args = args
        self.Session = Session
        self.clear = clear_default_cache
        self.cache = default_cache()
        self.tracer = tracer
        kinds = ("cold", "warm", "warmup", "setup")
        #: Host seconds of untraced and traced requests, and the untraced
        #: loop requests in reference-host seconds.
        self.samples = {kind: [] for kind in kinds}
        self.traced_samples = {kind: [] for kind in kinds}
        self.scaled = {kind: [] for kind in kinds}
        self._uncalibrated: list[tuple[str, float, bool]] = []
        self.attempted = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self.records: list[tuple[int, str, str]] = []
        self.cold_digests: dict[str, str] = {}
        self.scales: list[float] = []
        self.busy = 0.0
        self.counted_s = 0.0
        self.counted_host_s = 0.0
        self.looping = False
        self.calibration = Calibration()
        self.calibrated_s = 0.0
        self.setup_factor = 1.0
        self.cache_mb: list[float] = []
        self.traced: list[dict] = []
        self.resident: list[float] = []
        self._macs_per_request: dict[float, int] = {}
        self._reference = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}

    def request_macs(self, scale: float) -> int:
        """Simulated dense MACs of one request: per (network layer x simulator cell)."""
        if scale not in self._macs_per_request:
            plan = self.Session().describe("networks").build(scale=scale, seed=1)
            self._macs_per_request[scale] = sum(
                cell.workload.build().total_macs() for cell in plan.cells)
        return self._macs_per_request[scale]

    def request(self, kind, session, scale, seed, point=None, traced=False, counted=True):
        """One timed ``Session.run``; returns ``(ordinal, payload digest or None)``.

        Only ``counted`` loop requests enter the simulated-MAC throughput.
        """
        params = {"scale": scale, "seed": seed}
        if point is not None:
            params["arch"], params["arch_overrides"] = point
        key = streams.request_key(scale, seed, point)
        self.attempted += 1
        ordinal = self.attempted
        if traced:
            self.tracer.install()
            self.tracer.request = ordinal
            root = self.tracer.open("request")
        start = time.perf_counter()
        try:
            result = session.run("networks", **params)
        except Exception as exc:  # a failed request is counted, the loop goes on
            self.fail(ordinal, "%s %s: %r" % (kind, key, exc))
            return ordinal, None
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.close(root)
                self.tracer.uninstall()
                self.traced.append(spans.request_totals(self.tracer.collect()))
                self.resident.append(array_mb(self.cache.memory_backend))
        (self.traced_samples if traced else self.samples)[kind].append(elapsed)
        if self.looping:
            self.busy += elapsed
            if not traced:
                self._uncalibrated.append((kind, elapsed, counted))
            if counted and not traced:
                self.scales.append(scale)
                self.counted_host_s += elapsed
        digest = payload_digest(result)
        self.records.append((ordinal, key, digest))
        recorded = self._reference.get(key)
        if recorded is not None and recorded != digest:
            self.fail(ordinal, "%s %s: payload differs from the recorded digest" % (kind, key))
        if self.looping and self.calibrated_s < CALIBRATION_SHARE * self.busy:
            self.calibrate()
        return ordinal, digest

    def calibrate(self) -> None:
        """Scale the requests timed since the last kernel block by a new block's factor."""
        start = time.perf_counter()
        factor = self.calibration.block(CALIBRATION_SHARE * self.busy - self.calibrated_s)
        self.calibrated_s += time.perf_counter() - start
        for kind, elapsed, counted in self._uncalibrated:
            self.scaled[kind].append(elapsed / factor)
            if counted:
                self.counted_s += elapsed / factor
        self._uncalibrated = []

    def fail(self, ordinal: int, message: str) -> None:
        self.failed.add(ordinal)
        self.errors.append(message)

    def check_identity(self, request, reference) -> None:
        """A cache-served payload must equal the serial memory-only payload."""
        ordinal, digest = request
        if digest is not None and reference is not None and digest != reference:
            self.fail(ordinal, "request %d: payload differs from the serial "
                      "memory-only run" % ordinal)

    def check_repeats(self) -> None:
        """Every repeat of one request must return the same payload."""
        by_key: dict[str, list] = {}
        for ordinal, key, digest in self.records:
            by_key.setdefault(key, []).append((ordinal, digest))
        for key, seen in by_key.items():
            if len({digest for _, digest in seen}) > 1:
                for ordinal, _ in seen:
                    self.fail(ordinal, "request %s gave different payloads" % key)

    def cycles(self, seconds: float, body) -> None:
        """Run ``body(index, traced)`` until ``seconds`` have passed.

        With ``--trace 1`` every other cycle is traced, so traced and
        untraced requests interleave and give the tracing overhead.
        """
        deadline = time.perf_counter() + seconds
        self.looping = True
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            body(index, bool(self.args.trace) and index % 2 == 0)
            index += 1
        self.calibrate()
        self.looping = False


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
def paper_cold(loop: Loop, seconds: float | None) -> None:
    """Cold paper-scale requests, each followed by LRU-served re-runs."""
    session = loop.Session()
    session.describe("networks")
    ready(loop)
    if seconds is None:
        return
    seeds = streams.scenario_seeds("paper-cold", loop.args.seed, 1000)
    # The process's first cold request also pays for growing the heap to the
    # working set (1.3 GB); it is checked but not timed.
    loop.clear()
    loop.request("warmup", session, 1.0, seeds[0])

    def body(index, traced):
        seed = seeds[index + 1]
        loop.clear()
        _, cold = loop.request("cold", session, 1.0, seed, traced=traced)
        loop.cache_mb.append(array_mb(loop.cache.memory_backend))
        # Only the cold request is traced: the per-layer numbers describe it.
        for _ in range(PAPER_WARM_RERUNS):
            loop.check_identity(loop.request("warm", session, 1.0, seed, counted=False), cold)

    loop.cycles(seconds, body)


def dse_points(seed: int, count: int) -> list:
    """The first ``count`` distinct design points of the seeded stream."""
    points: list = []
    for point in streams.dse_stream(seed):
        if point not in points:
            points.append(point)
        if len(points) == count:
            return points


def dse_warm(loop: Loop, seconds: float | None, index: int) -> None:
    """Warm the LRU with one cold run, then stream LRU-served design points."""
    session = loop.Session()
    seed = streams.scenario_seeds("dse-warm", loop.args.seed, 1)[0]
    point = dse_points(loop.args.seed, index + 1)[index]
    loop.clear()
    _, digest = loop.request("setup", session, 0.5, seed, point)
    loop.cold_digests[streams.request_key(0.5, seed, point)] = digest
    loop.cache_mb.append(array_mb(loop.cache.memory_backend))
    ready(loop)
    if seconds is None:
        return
    stream = streams.dse_stream(loop.args.seed)

    def body(_, traced):
        loop.request("warm", session, 0.5, seed, next(stream), traced=traced)

    loop.cycles(seconds, body)


def tiered_pool(loop: Loop, seconds: float | None) -> None:
    """Pooled populate requests into a fresh disk tier, then pooled disk reloads."""
    work = Path(loop.args.work_dir)
    loop.Session(workers=POOL_WORKERS, cache_dir=work / "tier-setup")
    loop.Session().describe("networks")
    ready(loop)
    if seconds is None:
        return
    seeds = streams.scenario_seeds("tiered-pool", loop.args.seed, POOL_SEEDS)
    results: dict[int, list] = {seed: [] for seed in seeds}

    def body(index, traced):
        seed = seeds[index % POOL_SEEDS]
        tier = work / ("tier-%d" % index)
        session = loop.Session(workers=POOL_WORKERS, cache_dir=tier)
        loop.clear()
        results[seed].append(loop.request("cold", session, 0.5, seed, traced=traced))
        loop.cache_mb.append(session.disk_tier.stats().total_bytes / 1e6)
        for _ in range(POOL_RELOADS):
            loop.clear()
            results[seed].append(loop.request("warm", session, 0.5, seed, traced=traced))
        shutil.rmtree(tier)

    loop.cycles(seconds, body)
    reference = loop.Session()
    for seed, requests in results.items():
        if not requests:
            continue
        loop.clear()
        expected = payload_digest(reference.run("networks", scale=0.5, seed=seed))
        for request in requests:
            loop.check_identity(request, expected)


def ready(loop: Loop) -> None:
    """Announce a ready ``Session``, then measure the host speed set-up ran at."""
    print("READY", flush=True)
    loop.setup_factor = loop.calibration.block(CALIBRATION_SHARE * (time.perf_counter() - STARTED))


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def run(args) -> dict:
    pin = pin_state()
    sys.path.insert(0, str(ROOT / "src"))
    work = Path(args.work_dir)
    tracer = spans.Tracer(work / "spans")
    (work / "spans").mkdir(parents=True, exist_ok=True)
    loop = Loop(args, tracer)
    seconds = args.seconds if args.role == "main" else None
    if args.workload == "paper-cold":
        paper_cold(loop, seconds)
    elif args.workload == "dse-warm":
        dse_warm(loop, seconds, args.index)
    else:
        tiered_pool(loop, seconds)
    if args.workload == "dse-warm" and seconds is not None:
        loop.cold_digests.update(json.loads(args.cold_digests or "{}"))
        for ordinal, key, digest in loop.records:
            loop.check_identity((ordinal, digest), loop.cold_digests.get(key))
    loop.check_repeats()
    failed = len(loop.failed)
    if not pin["held"]:
        failed = loop.attempted
        loop.errors.append("BLAS thread pin did not hold: %r" % (pin,))
    out = {
        "pin": pin,
        "attempted": loop.attempted,
        "failed": failed,
        "errors": loop.errors[:20],
        "cold_s": loop.scaled["cold"],
        "warm_s": loop.scaled["warm"],
        "host_cold_s": loop.samples["cold"],
        "host_warm_s": loop.samples["warm"],
        "setup_cold_s": loop.samples["setup"],
        "cold_digests": loop.cold_digests,
        "macs": sum(loop.request_macs(scale) for scale in loop.scales),
        "counted": len(loop.scales),
        "counted_s": loop.counted_s,
        "counted_host_s": loop.counted_host_s,
        "speed_factor": loop.calibration.factor(),
        "setup_factor": loop.setup_factor,
        "calibration_samples": len(loop.calibration.samples),
        "cache_mb": loop.cache_mb,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace and loop.traced:
        out["per_layer"] = spans.per_layer(
            loop.traced,
            resident_mb=sum(loop.resident) / len(loop.resident),
            overhead_frac=overhead(loop.samples, loop.traced_samples),
        )
    return out


def overhead(untraced: dict, traced: dict) -> float:
    """Mean over request kinds of traced / untraced median time, minus one."""
    from statistics import median

    ratios = [median(traced[kind]) / median(untraced[kind])
              for kind in untraced if traced[kind] and untraced[kind]]
    return sum(ratios) / len(ratios) - 1.0 if ratios else 0.0


def record_digests() -> None:
    """Recompute the default seed's reference digests (cold, serial, memory-only)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.api import Session
    from repro.engine import clear_default_cache

    session = Session()
    table = {}

    def cold(scale, seed, point=None):
        clear_default_cache()
        params = {"scale": scale, "seed": seed}
        if point is not None:
            params["arch"], params["arch_overrides"] = point
        table[streams.request_key(scale, seed, point)] = payload_digest(
            session.run("networks", **params))

    seed = streams.DEFAULT_SEED
    for scenario_seed in streams.scenario_seeds("paper-cold", seed, 6):
        cold(1.0, scenario_seed)
    for scenario_seed in streams.scenario_seeds("tiered-pool", seed, POOL_SEEDS):
        cold(0.5, scenario_seed)
    dse_seed = streams.scenario_seeds("dse-warm", seed, 1)[0]
    for point in streams.design_points():
        cold(0.5, dse_seed, point)
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, default=streams.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "main"), default="main")
    parser.add_argument("--index", type=int, default=0,
                        help="set-up index; picks the dse-warm warming design point")
    parser.add_argument("--cold-digests", help="JSON digests of the probes' cold runs")
    parser.add_argument("--work-dir", default=str(ROOT / ".perfbench-work" / "manual"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
