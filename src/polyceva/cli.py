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

One table, ``_COMMANDS``, defines the subcommands and their arguments.
``main`` first decodes argv with a small matcher over that table, which
takes only exact long flags and positionals; anything else, ``-h`` and
every usage error included, goes to the argparse parser that
`build_parser` builds from the same table.  argparse is imported only
then.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

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


# The CLI's one definition, read by both the argv matcher and
# build_parser.  Each subcommand has its help, its positionals as
# (dest, type), its long flags as option: (dest, type, default, choices,
# required, help), and the options of its mutually exclusive group.  A
# flag of type None is a switch; a default of _UNSET leaves the dest out
# of the namespace until the flag is given.  _GLOBAL_FLAGS, all
# switches, go before the subcommand.
_UNSET = object()
_CONFIG = (("config", Path),)
_OUTPUT_FLAGS = {
    "--json": ("force_json", None, False, None, False,
               "machine-readable JSON (default)"),
    "--pretty": ("pretty", None, _UNSET, None, False, None),
}
_GLOBAL_FLAGS = {
    "--pretty": ("pretty", None, False, None, False,
                 "human-readable output instead of JSON"),
}
_COMMANDS = {
    "verify": ("check the product identity of a config file", _CONFIG,
               _OUTPUT_FLAGS, ("--json", "--pretty")),
    "counterexample": ("build the non-concurrent pentagon with product -1",
                       _CONFIG, _OUTPUT_FLAGS, ("--json", "--pretty")),
    "fuzz": ("run seeded random verification batches", (), {
        "--trials": ("trials", int, 100, None, False, None),
        "--kind": ("kind", str, "ceva", ("ceva", "inscribed", "concurrent"),
                   False, None),
        "--n-min": ("n_min", int, 3, None, False, None),
        "--n-max": ("n_max", int, 7, None, False, None),
        "--seed": ("seed", int, 0, None, False, None),
        "--bound": ("bound", int, 10, None, False, None),
    }, ()),
    "svg": ("render a config as a standalone SVG figure", _CONFIG,
            {"--out": ("out", Path, None, None, True, None)}, ()),
}
# Per subcommand, the namespace before its arguments are read, and the
# dests that must be given.
_DEFAULTS = {
    command: {"command": command, **{
        dest: default for dest, _, default, _, required, _ in flags.values()
        if default is not _UNSET and not required}}
    for command, (_, _, flags, _) in _COMMANDS.items()}
_REQUIRED = {
    command: tuple(dest for dest, *_, required, _ in flags.values() if required)
    for command, (_, _, flags, _) in _COMMANDS.items()}


def _match(argv: list[str]) -> dict | None:
    """The namespace argparse gives argv, as a dict, when argv holds only
    global switches, a subcommand, then its exact long flags, each with a
    valid value, and its positionals; None for anything else (an
    abbreviation, ``--flag=value``, ``-h``, ``--``, a value starting
    with ``-``, an unknown or missing token, a bad value, both options
    of an exclusive group), which argparse parses or reports."""
    values = {dest: default for dest, _, default, *_ in _GLOBAL_FLAGS.values()}
    k = 0
    while k < len(argv) and argv[k] in _GLOBAL_FLAGS:
        values[_GLOBAL_FLAGS[argv[k]][0]] = True
        k += 1
    if k == len(argv) or argv[k] not in _COMMANDS:
        return None
    command = argv[k]
    _, positionals, flags, exclusive = _COMMANDS[command]
    values.update(_DEFAULTS[command])
    positional = iter(positionals)
    tokens = iter(argv[k + 1:])
    given = set()
    for token in tokens:
        flag = flags.get(token)
        if flag is None:
            if token[:1] == "-":
                return None
            spec = next(positional, None)
            if spec is None:
                return None
            values[spec[0]] = spec[1](token)
            continue
        dest, kind, _, choices, _, _ = flag
        given.add(token)
        if kind is None:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value defers like "-x"
        if value[:1] == "-":
            return None
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if (next(positional, None) is not None
            or len(given.intersection(exclusive)) > 1
            or not all(dest in values for dest in _REQUIRED[command])):
        return None
    return values


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI table: the one path for ``-h``,
    usage text and every error."""
    import argparse

    def add(parser, option, dest, kind, default, choices, required, text):
        if default is _UNSET:
            default = argparse.SUPPRESS
        if kind is None:
            parser.add_argument(option, dest=dest, action="store_true",
                                default=default, help=text)
        else:
            parser.add_argument(option, dest=dest, type=kind, default=default,
                                choices=choices, required=required, help=text)

    parser = argparse.ArgumentParser(
        prog="polyceva",
        description="Exact rational verification of cevian product "
                    "identities on polygons.")
    for option, flag in _GLOBAL_FLAGS.items():
        add(parser, option, *flag)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, positionals, flags, exclusive) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=text)
        for dest, kind in positionals:
            cmd.add_argument(dest, type=kind)
        group = cmd.add_mutually_exclusive_group() if exclusive else None
        for option, flag in flags.items():
            add(group if option in exclusive else cmd, option, *flag)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` falls back on, built on its first use and kept
    for the process: parse_args keeps no state between calls, and
    building the parser costs far more than using it."""
    return build_parser()


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
    if argv is None:
        argv = sys.argv[1:]
    values = _match(argv)
    args = (_parser().parse_args(argv) if values is None
            else SimpleNamespace(**values))
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
