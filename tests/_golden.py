"""Golden CLI outputs: each case's exit code, stdout and stderr, byte for byte.

The cases run ``python -m polyceva`` in a fresh interpreter.  ``svg``
cases pin the written figure in place of stdout, and ``fuzz`` cases pin
the report without its wall-clock ``elapsed_seconds``.  Run directly, the
module needs no pytest:

    PYTHONPATH=src python tests/_golden.py           # compare, exit 1 on a diff
    PYTHONPATH=src python tests/_golden.py --write   # regenerate the files

A case name that only ``CASES`` or only ``status.json`` lists (say, a
checkout without ``configs/``) counts as a diff.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
STATUS = GOLDEN / "status.json"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        doc = f"configs/{path.name}"
        cases[f"{path.stem}.verify"] = ["verify", doc]
        cases[f"{path.stem}.pretty"] = ["--pretty", "verify", doc]
        cases[f"{path.stem}.counterexample"] = ["counterexample", doc]
        cases[f"{path.stem}.svg"] = ["svg", doc]
    for path in sorted((GOLDEN / "inputs").glob("*.json")):
        doc = f"tests/golden/inputs/{path.name}"
        cases[f"{path.stem}.verify"] = ["verify", doc]
        cases[f"{path.stem}.pretty"] = ["--pretty", "verify", doc]
        cases[f"{path.stem}.svg"] = ["svg", doc]
    cases["fuzz_ceva"] = ["fuzz", "--trials", "1000", "--kind", "ceva",
                          "--n-min", "3", "--n-max", "9", "--seed", "7"]
    cases["fuzz_inscribed"] = ["fuzz", "--trials", "200", "--kind", "inscribed"]
    cases["fuzz_concurrent"] = ["fuzz", "--trials", "100", "--kind", "concurrent"]
    return cases


CASES = _cases()


def run_case(name: str) -> tuple[int, str, str]:
    """Exit code, pinned output and stderr of one case."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run([sys.executable, "-m", "polyceva", *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    return pinned(name, run)


def pinned(name: str, run) -> tuple[int, str, str]:
    """Exit code, pinned output and stderr of one case, where
    ``run(argv)`` runs the CLI from the repository root and returns its
    exit code, stdout and stderr."""
    argv = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        figure = Path(tmp) / "figure.svg"
        if argv[0] == "svg":
            argv = [*argv, "--out", str(figure)]
        code, out, err = run(argv)
        if argv[0] == "svg" and figure.exists():
            out = figure.read_text()
    if argv[0] == "fuzz" and code in (0, 1):
        report = json.loads(out)
        del report["elapsed_seconds"]
        out = json.dumps(report, indent=2) + "\n"
    return code, out, err


def pinned_names() -> set[str]:
    """The case names that status.json pins."""
    return set(json.loads(STATUS.read_text()))


def expected(name: str) -> tuple[int, str, str]:
    status = json.loads(STATUS.read_text())[name]
    return (status["exit"], (GOLDEN / f"{name}.out").read_text(),
            status["stderr"])


def write() -> None:
    status = {}
    for name in CASES:
        code, out, err = run_case(name)
        (GOLDEN / f"{name}.out").write_text(out)
        status[name] = {"exit": code, "stderr": err}
    STATUS.write_text(json.dumps(status, indent=2) + "\n")


def main() -> int:
    if sys.argv[1:] == ["--write"]:
        write()
        return 0
    pinned = pinned_names()
    unmatched = sorted(pinned ^ set(CASES))
    for name in unmatched:
        print(f"only in {'status.json' if name in pinned else 'CASES'}: {name}")
    differ = [name for name in CASES
              if name in pinned and run_case(name) != expected(name)]
    for name in differ:
        print(f"differs: {name}")
    total = len(pinned | set(CASES))
    print(f"{total - len(unmatched) - len(differ)}/{total} cases match")
    return 1 if unmatched or differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
