"""One process, many ``cli.main`` calls: the parser ``main`` keeps between
calls carries no state from one call into the next."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import polyceva.cli as cli
from _golden import CASES, ROOT, expected, pinned

TRIANGLE = "configs/triangle_centroid.json"

# Calls argparse rejects.  Its wording varies across Python versions, so
# each is compared with a fresh ``python -m polyceva`` on this interpreter,
# both sides wrapping usage lines at COLUMNS.
USAGE_ERRORS = {
    "no_subcommand": [],
    "unknown_flag": ["verify", TRIANGLE, "--bogus"],
    "json_and_pretty": ["verify", "--json", "--pretty", TRIANGLE],
    "bad_kind": ["fuzz", "--kind", "nope"],
    "svg_without_out": ["svg", TRIANGLE],
}


COLUMNS = "80"


@pytest.fixture(autouse=True)
def _columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)


def in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``; argparse's
    SystemExit gives the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh_process(argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, COLUMNS=COLUMNS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-m", "polyceva", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def usage_errors() -> dict[str, tuple[int, str, str]]:
    return {name: fresh_process(argv) for name, argv in USAGE_ERRORS.items()}


def test_every_case_twice_in_one_process(monkeypatch, usage_errors):
    """Each golden case and each usage error, in order and then in
    reverse, matches what a fresh process gives; the reversed pass runs
    every ``--pretty verify`` case right before its plain ``verify``."""
    monkeypatch.chdir(ROOT)
    calls = [*CASES, *USAGE_ERRORS]
    for order in (calls, calls[::-1]):
        for name in order:
            if name in CASES:
                assert pinned(name, in_process) == expected(name), name
            else:
                code, out, err = in_process(USAGE_ERRORS[name])
                assert code == 2, name
                assert (code, out, err) == usage_errors[name], name


def test_pretty_then_plain_prints_json(monkeypatch):
    monkeypatch.chdir(ROOT)
    pretty = in_process(["--pretty", "verify", TRIANGLE])
    plain = in_process(["verify", TRIANGLE])
    assert pretty == (0, expected("triangle_centroid.pretty")[1], "")
    assert plain == (0, expected("triangle_centroid.verify")[1], "")
    assert json.loads(plain[1])["holds"] is True


def test_usage_error_leaves_the_next_call_alone(monkeypatch, usage_errors):
    monkeypatch.chdir(ROOT)
    for name, argv in USAGE_ERRORS.items():
        assert in_process(argv) == usage_errors[name]
        assert in_process(["verify", TRIANGLE]) == (
            0, expected("triangle_centroid.verify")[1], "")
