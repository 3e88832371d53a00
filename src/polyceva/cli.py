"""Command-line front end.

Subcommands: verify, counterexample, fuzz, svg.  Exit codes:

    0  the checked identity holds
    1  the identity was computed and fails (kernel bug sentinel)
    2  input error (bad JSON, bad rational, structural invariant, flags)
    3  degenerate configuration (parallel/tangent/vertex collision)
    4  internal error (an unexpected exception, such as a helper's
       ValueError from a call outside its domain; a one-line message)

Machine-readable JSON is the default output; --pretty renders an
aligned factor table instead.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
from pathlib import Path

from .ceva import CevaConfig, build_converse_counterexample, ceva_product
from .circle import (
    InscribedConfig,
    concurrent_secants_check,
    inscribed_identity_report,
)
from .configio import (
    MAX_BYTES,
    CounterexampleInput,
    ReportEncoder,
    ceva_run_report,
    counterexample_run_report,
    factor_entry,
    inscribed_run_report,
    parse_config,
)
from .errors import ConfigError, GeometryError

# Names of the modules only some subcommands use, imported on first use
# (``verify`` needs neither).  Commands look them up on this module, so
# a name set on it, e.g. by a tracer, is the one that runs.
_LAZY = {
    "GenParams": "fuzz",
    "fuzz_ceva": "fuzz",
    "fuzz_inscribed": "fuzz",
    "render_ceva_svg": "svgout",
    "render_counterexample_svg": "svgout",
    "render_inscribed_svg": "svgout",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


def _lazy(name: str):
    return globals()[name] if name in globals() else __getattr__(name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyceva",
        description="Exact rational verification of cevian product "
                    "identities on polygons.")
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check the product identity of a config file")
    verify.add_argument("config", type=Path)
    _output_flags(verify)

    counter = sub.add_parser("counterexample",
                             help="build the non-concurrent pentagon with product -1")
    counter.add_argument("config", type=Path)
    _output_flags(counter)

    fuzz = sub.add_parser("fuzz", help="run seeded random verification batches")
    fuzz.add_argument("--trials", type=int, default=100)
    fuzz.add_argument("--kind", choices=("ceva", "inscribed", "concurrent"),
                      default="ceva")
    fuzz.add_argument("--n-min", type=int, default=3)
    fuzz.add_argument("--n-max", type=int, default=7)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--bound", type=int, default=10)

    svg = sub.add_parser("svg", help="render a config as a standalone SVG figure")
    svg.add_argument("config", type=Path)
    svg.add_argument("--out", type=Path, required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept for the
    process: parse_args keeps no state between calls, and building the
    parser costs far more than using it."""
    return build_parser()


def _output_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", dest="force_json", action="store_true",
                       help="machine-readable JSON (default)")
    group.add_argument("--pretty", dest="pretty", action="store_true",
                       default=argparse.SUPPRESS)


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        _print_pretty(report)
    else:
        print(json.dumps(report, indent=2, cls=ReportEncoder))


def _print_pretty(report: dict) -> None:
    head = [f"kind: {report['kind']}   n={report['n']} s={report['s']} t={report['t']}"]
    if "K" in report:
        head.append(f"K = {report['K']}   branch {report['branch']}   "
                    f"concurrent: {report['concurrent']}")
    print("\n".join(head))
    factors = [factor_entry(f) for f in report.get("factors", ())]
    if factors:
        width = max(len(f["value"]) for f in factors)
        print(f"  {'i':>3} {'j':>3}  ratio")
        for f in factors:
            print(f"  {f['i']:>3} {f['j']:>3}  {f['value']:>{width}}")
    print(f"product  {report['product']}")
    if report.get("expected") is not None:
        print(f"expected {report['expected']}")
    for key, value in report.get("diagnostics", {}).items():
        if key in ("lhs_squared", "rhs_squared"):
            print(f"{key} {value}")
    print(f"holds    {'yes' if report['holds'] else 'NO'}")


# First read of a config file, in bytes: a typical config fits, and a
# read of MAX_BYTES + 1 would allocate its whole buffer on every call.
_FIRST_READ = 2**16


def _read(path: Path) -> bytes:
    """The config file, read up to one byte past MAX_BYTES: a longer file
    is rejected by parse_config without being read in full."""
    with path.open("rb") as f:
        data = f.read(_FIRST_READ)
        if len(data) == _FIRST_READ:
            data += f.read(MAX_BYTES + 1 - _FIRST_READ)
        return data


def _verify_report(parsed) -> dict:
    if isinstance(parsed, CevaConfig):
        return ceva_run_report(parsed, ceva_product(parsed))
    if isinstance(parsed, InscribedConfig):
        if parsed.common_point is None:
            report = inscribed_identity_report(parsed)
        else:
            report = concurrent_secants_check(parsed)
        return inscribed_run_report(report)
    assert isinstance(parsed, CounterexampleInput)
    result = build_converse_counterexample(parsed.vertices, parsed.pivot)
    return counterexample_run_report(result, parsed.seed)


def _cmd_verify(args, pretty: bool) -> int:
    """Both ``verify`` and ``counterexample``; the latter takes only
    counterexample configs."""
    parsed = parse_config(_read(args.config))
    if (args.command == "counterexample"
            and not isinstance(parsed, CounterexampleInput)):
        raise ConfigError("counterexample subcommand needs a config of "
                          "kind 'counterexample'")
    report = _verify_report(parsed)
    _emit(report, pretty)
    return 0 if report["holds"] else 1


def _cmd_fuzz(args) -> int:
    try:
        params = _lazy("GenParams")(
            seed=args.seed, n_min=args.n_min, n_max=args.n_max,
            coordinate_bound=args.bound)
        if args.trials < 0:
            raise ValueError("--trials must be nonnegative")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.kind == "ceva":
        report = _lazy("fuzz_ceva")(params, args.trials)
    else:
        report = _lazy("fuzz_inscribed")(params, args.trials,
                                         concurrent=args.kind == "concurrent")
    print(json.dumps(report.to_dict(), indent=2, cls=ReportEncoder))
    return 0 if not report.failures else 1


def _cmd_svg(args) -> int:
    parsed = parse_config(_read(args.config))
    try:
        if isinstance(parsed, CevaConfig):
            doc = _lazy("render_ceva_svg")(parsed)
        elif isinstance(parsed, InscribedConfig):
            doc = _lazy("render_inscribed_svg")(parsed)
        else:
            doc = _lazy("render_counterexample_svg")(
                build_converse_counterexample(parsed.vertices, parsed.pivot))
    except OverflowError as exc:
        # Figures are laid out in floats; the exact checks have no such limit.
        raise ConfigError(f"coordinates out of float range to draw: {exc}") from exc
    args.out.write_text(doc)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    pretty = getattr(args, "pretty", False) and not getattr(args, "force_json", False)
    try:
        if args.command in ("verify", "counterexample"):
            return _cmd_verify(args, pretty)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        return _cmd_svg(args)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # A bug, not a verdict: exit 1 would read as a falsified identity.
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
