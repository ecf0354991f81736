"""``python -m repro`` -- the command-line face of :class:`repro.api.Session`.

Subcommands::

    python -m repro list                         # every registered scenario
    python -m repro describe fig13-traffic       # description + defaults
    python -m repro run fig13-traffic --scale 0.25 --workers 2 --json
    python -m repro run networks --set "networks=('alexnet',)" --stream
    python -m repro run dse-pe-scaling --arch loas-32nm --scale 0.25
    python -m repro run dse-sram-sweep --set arch.pe.num_tppes=32
    python -m repro cache stats --cache-dir .eval-cache
    python -m repro cache stats --cache-dir .eval-cache --json
    python -m repro cache clear --cache-dir .eval-cache

``run`` prints the shaped payload as JSON by default; ``--json`` switches to
the full versioned :class:`~repro.api.result.ScenarioResult` record
(payload + provenance), decodable with ``ScenarioResult.from_json``.
``--stream`` executes sweep scenarios incrementally, reporting each
completed ``(workload, seed, finetuned, layer type)`` partition, with its
simulator labels, on stderr as it lands.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Any, Sequence

from ..arch import resolve_arch
from .result import _encode
from .session import Session

__all__ = ["main"]


class _CliError(Exception):
    """A user-facing CLI mistake: printed as one line, exit code 2.

    Raised only for *expected* failures (unknown scenario, option the
    scenario cannot honour); genuine library errors during execution
    propagate with a full traceback so failures stay diagnosable.
    """


def _parse_override(text: str) -> tuple[str, Any]:
    """``key=value`` with the value parsed as a Python literal when possible."""
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            "expected key=value, got %r" % (text,)
        )
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw  # plain string, e.g. --set network=vgg16
    return key, value


def _build_parser() -> argparse.ArgumentParser:
    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the LoAS-reproduction scenarios (figures and tables).",
    )
    parser.add_argument("--version", action="version", version="repro " + __version__)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list every registered scenario")

    describe = commands.add_parser("describe", help="show a scenario's description and defaults")
    describe.add_argument("scenario")

    run = commands.add_parser("run", help="execute a scenario and print its result")
    run.add_argument("scenario")
    run.add_argument("--workers", type=int, default=None, help="worker-pool size (default: serial)")
    run.add_argument("--cache-dir", default=None, help="shared on-disk evaluation-cache directory")
    run.add_argument("--scale", type=float, default=None, help="workload scale override")
    run.add_argument("--seed", type=int, default=None, help="sweep seed override")
    run.add_argument(
        "--arch",
        default=None,
        help=(
            "hardware design point: a registered ArchSpec preset name "
            "(e.g. loas-32nm); tweak individual knobs with "
            "--set arch.<group>.<field>=<value>"
        ),
    )
    run.add_argument(
        "--set",
        dest="overrides",
        type=_parse_override,
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra scenario parameter (Python literal or string); repeatable",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="print the full ScenarioResult record (payload + provenance)",
    )
    run.add_argument(
        "--stream",
        action="store_true",
        help="stream partition completions to stderr while running",
    )

    cache = commands.add_parser("cache", help="inspect or clear the evaluation cache")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "print cache counters (the disk tier with --cache-dir)"),
        ("clear", "reset the in-process LRU (and the disk tier when named)"),
    ):
        sub = cache_commands.add_parser(name, help=help_text)
        sub.add_argument("--cache-dir", default=None)
        if name == "stats":
            sub.add_argument(
                "--json",
                action="store_true",
                help="machine-readable per-tier CacheStats record",
            )
    return parser


def _command_list(session: Session) -> int:
    names = session.scenarios()
    width = max(len(name) for name in names)
    for name in names:
        scenario = session.describe(name)
        print("%-*s  %s" % (width, name, scenario.description))
    return 0


def _resolve_scenario(session: Session, name: str):
    try:
        return session.describe(name)
    except KeyError as error:
        raise _CliError(error.args[0]) from error


def _command_describe(session: Session, name: str) -> int:
    scenario = _resolve_scenario(session, name)
    kind = "bespoke" if scenario.run is not None else "sweep"
    print("%s (%s scenario)" % (scenario.name, kind))
    if scenario.description:
        print("  %s" % scenario.description)
    if scenario.defaults:
        print("  defaults:")
        for key, value in scenario.defaults:
            print("    %s = %r" % (key, value))
    else:
        print("  defaults: (none)")
    if kind == "sweep":
        print("  streaming: supported (python -m repro run %s --stream)" % scenario.name)
    return 0


def _command_run(session: Session, args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(session, args.scenario)
    # "arch.<path>" --set keys address individual ArchSpec knobs; they fold
    # into the scenario's arch_overrides parameter (flat (path, value) pairs)
    # instead of becoming parameters themselves.
    arch_overrides = tuple(
        (key[len("arch."):], value)
        for key, value in args.overrides
        if key.startswith("arch.")
    )
    params: dict[str, Any] = dict(
        (key, value) for key, value in args.overrides if not key.startswith("arch.")
    )
    if arch_overrides:
        if "arch_overrides" in params:
            raise _CliError(
                "'arch_overrides' given both via --set arch.<path>=... and "
                "--set arch_overrides=...; pick one"
            )
        params["arch_overrides"] = arch_overrides
    for reserved, flag in (("workers", "--workers"), ("cache_dir", "--cache-dir")):
        if reserved in params:
            # These build the Session, not the scenario: via --set they
            # would reach the scenario as an unknown parameter.
            raise _CliError(
                "%r is controlled by the %s flag, not --set" % (reserved, flag)
            )
    for flag_name, flag_value, flag in (
        ("scale", args.scale, "--scale"),
        ("seed", args.seed, "--seed"),
        ("arch", args.arch, "--arch"),
    ):
        if flag_value is None:
            continue
        if flag_name in params:
            # Same loud treatment as the workers/cache_dir collisions: a
            # silent overwrite would run with a value the user didn't pick.
            raise _CliError(
                "%r given both via %s and --set; pick one" % (flag_name, flag)
            )
        params[flag_name] = flag_value
    # Pre-flight the param mismatches (Session's own rules), the runner
    # flags a bespoke scenario cannot honour (the session would run it
    # without them, misreporting what ran) and the requested design point
    # (ArchSpec's own checks) so they surface as clean one-liners, while
    # errors raised during actual execution keep their traceback.
    try:
        session.validate_run_options(scenario, stream=args.stream, params=params)
        for option, value in (("workers", args.workers), ("cache_dir", args.cache_dir)):
            if scenario.run is not None and value is not None:
                raise TypeError("scenario %r does not support %r" % (scenario.name, option))
        design = {**dict(scenario.defaults), **params}
        resolve_arch(design.get("arch"), design.get("arch_overrides", ()))
    except (KeyError, TypeError, ValueError) as error:
        raise _CliError(error.args[0]) from error
    if args.stream:
        stream = session.stream(args.scenario, **params)
        done = 0
        for partition in stream:
            done += 1
            print(
                "[%d/%d] partition %d: %s @ seed %d: %s"
                % (
                    done,
                    partition.total,
                    partition.index,
                    partition.workload_label,
                    partition.seed,
                    ", ".join(partition.simulator_labels),
                ),
                file=sys.stderr,
            )
        result = stream.result
    else:
        result = session.run(args.scenario, **params)
    if args.json:
        print(result.to_json(indent=2))
    else:
        print(json.dumps(_encode(result.payload), indent=2))
    return 0


def _format_stats(label: str, stats) -> None:
    print("%s:" % label)
    for key, value in stats.as_dict().items():
        print("  %-16s %s" % (key, value))


def _command_cache(session: Session, args: argparse.Namespace) -> int:
    if args.cache_command == "stats":
        snapshot = session.cache_stats()
        if args.json:
            record = {
                tier: stats.as_dict() if stats is not None else None
                for tier, stats in snapshot.items()
            }
            print(json.dumps(record, indent=2))
            return 0
        _format_stats("lru (this process)", snapshot["lru"])
        if snapshot["disk"] is not None:
            _format_stats("disk (%s)" % session.cache_dir, snapshot["disk"])
        else:
            print(
                "note: each CLI invocation starts a fresh process, so the "
                "LRU counters above are from this command only; pass "
                "--cache-dir to inspect the disk tier",
                file=sys.stderr,
            )
        return 0
    # clear
    if session.disk_tier is None:
        # Each CLI invocation is a fresh process whose LRU is already
        # empty; reporting "cleared" without a disk tier would be a lie.
        raise _CliError(
            "nothing to clear: the in-process LRU dies with each CLI "
            "invocation anyway; pass --cache-dir to clear the disk tier"
        )
    removed = len(session.disk_tier)
    session.clear_cache(disk=True)
    print("removed %d disk entries from %s" % (removed, session.cache_dir))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _command_list(Session())
        if args.command == "describe":
            return _command_describe(Session(), args.scenario)
        if args.command == "run":
            # --workers / --cache-dir build the session; a pool they ask for
            # ends with the command, and a value the session rejects
            # (``--workers -1``) is a usage error like any other option.
            try:
                session = Session(workers=args.workers, cache_dir=args.cache_dir)
            except ValueError as error:
                raise _CliError(error.args[0]) from error
            with session:
                return _command_run(session, args)
        if args.command == "cache":
            return _command_cache(Session(cache_dir=args.cache_dir), args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe: exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except _CliError as error:
        print("error: %s" % (error.args[0],), file=sys.stderr)
        return 2
    raise AssertionError("unreachable command %r" % (args.command,))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
