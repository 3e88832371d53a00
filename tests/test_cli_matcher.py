"""The argv matcher ``cli.main`` tries before argparse: on every argv it
decodes, its namespace is argparse's; every other argv it leaves to
argparse, which parses it or reports the error."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import polyceva.cli as cli


def argparse_vars(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, or None when it exits
    (an error, or ``-h``)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


COMMANDS = list(cli._COMMANDS)
GLOBAL_FLAGS = list(cli._GLOBAL_FLAGS)
FLAGS = sorted({option for _, _, flags, _ in cli._COMMANDS.values()
                for option in flags})
JUNK = ["x.json", "o.svg", "5", "0", "-5", "1_0", " 7", "", "-", "--", "-h",
        "--help", "--tri", "--trials=5", "--out=o.svg", "--bogus", "ceva",
        "inscribed", "concurrent", "nope", "2.5"]
TOKEN = st.sampled_from([*COMMANDS, *GLOBAL_FLAGS, *FLAGS, *JUNK])


def _value(kind, choices):
    """A value for a flag of type kind: mostly valid, sometimes not."""
    if choices is not None:
        return st.sampled_from([*choices, "nope"])
    if kind is int:
        return st.sampled_from(["5", "0", "1_0", " 7", "-5", "2.5"])
    return st.sampled_from(["o.svg", "", "-", "-x", "x.json"])


def _command_argv(command: str):
    """argv for one subcommand: global switches, the subcommand, then in
    any order about as many positionals as it takes, some of its flags
    with values, and sometimes any token, so that many draws are argv
    the matcher decodes."""
    _, positionals, flags, _ = cli._COMMANDS[command]
    flag = st.one_of(*(st.just((option,)) if kind is None else
                       _value(kind, choices).map(lambda v, o=option: (o, v))
                       for option, (_, kind, _, choices, _, _) in flags.items()))
    pieces = st.builds(
        lambda args, options, extra: [*args, *options, *extra],
        st.lists(st.just(("x.json",)), min_size=max(0, len(positionals) - 1),
                 max_size=len(positionals) + 1),
        st.lists(flag, max_size=4),
        st.lists(st.tuples(TOKEN), max_size=1))
    return st.builds(lambda front, rest: [*front, command,
                                          *(t for p in rest for t in p)],
                     st.lists(st.sampled_from(GLOBAL_FLAGS), max_size=2),
                     pieces.flatmap(st.permutations))


ARGV = st.one_of(st.lists(TOKEN, max_size=8),
                 st.sampled_from(COMMANDS).flatmap(_command_argv))


@settings(max_examples=1000, deadline=None)
@given(ARGV)
def test_matcher_agrees_with_argparse_or_defers(argv):
    matched = cli._match(argv)
    if matched is not None:
        assert matched == argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["verify", "x.json"],
    ["--pretty", "verify", "x.json"],
    ["verify", "x.json", "--pretty"],
    ["verify", "--json", "x.json"],
    ["verify", "x.json", "--json", "--json"],
    ["--pretty", "counterexample", "x.json", "--json"],
    ["--pretty", "--pretty", "fuzz"],
    ["fuzz"],
    ["fuzz", "--trials", "3", "--trials", "5"],
    ["fuzz", "--kind", "concurrent", "--n-min", "4", "--n-max", "9",
     "--seed", "7", "--bound", "1000"],
    ["svg", "x.json", "--out", "o.svg"],
    ["svg", "--out", "o.svg", "x.json"],
    ["verify", ""],
])
def test_exact_forms_match_argparse(argv):
    matched = cli._match(argv)
    assert matched is not None
    assert matched == argparse_vars(argv)


@pytest.mark.parametrize("argv, expected", [
    (["fuzz", "--tri", "5"], {"trials": 5}),
    (["fuzz", "--trials=5"], {"trials": 5}),
    (["fuzz", "--seed", "-5"], {"seed": -5}),
    (["verify", "--", "x.json"], {"config": Path("x.json")}),
    (["svg", "x.json", "--out=o.svg"], {"out": Path("o.svg")}),
])
def test_argparse_only_forms_defer(argv, expected):
    assert cli._match(argv) is None
    parsed = argparse_vars(argv)
    assert parsed is not None and expected.items() <= parsed.items()


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["verify", "-h"],
    ["verify", "--json", "--pretty", "x.json"],
    ["verify", "x.json", "--pretty", "--json"],
    ["verify"],
    ["verify", "a.json", "b.json"],
    ["fuzz", "--kind", "nope"],
    ["fuzz", "--trials", "x"],
    ["fuzz", "--trials"],
    ["fuzz", "--pretty"],
    ["svg", "x.json"],
    ["svg", "x.json", "--out"],
    ["bogus"],
])
def test_errors_defer_to_argparse(argv):
    assert cli._match(argv) is None
    assert argparse_vars(argv) is None


def test_parser_is_built_from_the_table():
    """Every subcommand, flag and positional of the table, and nothing
    else, reaches argparse."""
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if a.dest == "command")
    assert list(sub.choices) == COMMANDS
    for command, (_, positionals, flags, _) in cli._COMMANDS.items():
        options = {o for a in sub.choices[command]._actions
                   for o in a.option_strings} - {"-h", "--help"}
        dests = [a.dest for a in sub.choices[command]._actions
                 if not a.option_strings]
        assert options == set(flags)
        assert dests == [dest for dest, _ in positionals]
