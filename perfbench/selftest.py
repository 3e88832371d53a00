"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that the gate reports a failure, not a number, when a pinned
digest is tampered with or an expected exit code is wrong; that a short
smoke run of every workload, untraced and traced, ends with no failed
operation; and that outside a polyceva checkout run.py fails to import
polyceva and exits non-zero without printing a result.  Prints one PASS or FAIL line per check and
exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads as wl


def result_of(stdout: str) -> dict | None:
    """The run's JSON result, if its last line is one."""
    lines = stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def bench(root: Path, *args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    return proc.returncode, result_of(proc.stdout), proc.stderr


def copy_checkout(dst: Path, *parts: str) -> Path:
    for part in parts:
        src = run.ROOT / part
        if src.is_dir():
            shutil.copytree(src, dst / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, dst / part)
    return dst


def tampered_digest_in_gate(scratch: Path) -> bool:
    pinned = json.loads(run.EXPECTED.read_text())
    key = sorted(pinned["verify-docs"])[0]
    pinned["verify-docs"][key] = "0" * 64
    ledger = run.Ledger(pinned)
    run.gate(run.ROOT, scratch / "tamper", ledger)
    return len(ledger.failures) == 1 and key in ledger.failures[0]


def wrong_exit_code(scratch: Path) -> bool:
    w = wl.VerifyDocs(wl.DEFAULT_SEED, run.ROOT, scratch / "exit")
    w.prepare(w.canary_ops)
    k = next(i for i, e in enumerate(w.expect) if e.kind == "degenerate")
    w.expect[k] = w.expect[k]._replace(code=0)
    ledger = run.Ledger(json.loads(run.EXPECTED.read_text()))
    code, out = w.op(k, tracing.NullTracer())
    ledger.record(w, k, code, out, require_pin=True)
    return len(ledger.failures) == 1 and "expected 0" in ledger.failures[0]


def tampered_run(scratch: Path) -> bool:
    root = copy_checkout(scratch / "tampered", "src", "configs", "perfbench")
    expected = root / "perfbench" / "expected.json"
    pinned = json.loads(expected.read_text())
    key = sorted(pinned["fuzz-ceva"])[0]
    pinned["fuzz-ceva"][key] = "f" * 64
    expected.write_text(json.dumps(pinned))
    code, result, _ = bench(root, "--workload", "fuzz-docs", "--seed", "1",
                            "--seconds", "0.2")
    return (code == 1 and result is not None and result["correct"] is False
            and result["failed"] == 1 and result["metrics"] == {})


def outside_checkout(scratch: Path) -> bool:
    root = copy_checkout(scratch / "bare", "perfbench", "BENCHMARK.json")
    code, result, err = bench(root, "--workload", "fuzz-docs", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
    return (code != 0 and result is None
            and "No module named 'polyceva'" in err)


def smoke(workload: str, trace: int) -> bool:
    code, result, _ = bench(run.ROOT, "--workload", workload, "--seed", "7",
                            "--seconds", "0.5", "--trace", str(trace))
    return (code == 0 and result is not None and result["correct"] is True
            and result["failed"] == 0 and len(result["metrics"]) > 0)


def main() -> int:
    scratch = run.ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    checks = [
        ("tampered pinned digest fails the gate", lambda: tampered_digest_in_gate(scratch)),
        ("wrong expected exit code fails the check", lambda: wrong_exit_code(scratch)),
        ("tampered digest: run prints correct=false, no metrics, exit 1",
         lambda: tampered_run(scratch)),
        ("outside a checkout: import error, non-zero exit, no result",
         lambda: outside_checkout(scratch)),
    ]
    checks += [(f"smoke {name} trace={trace}: no failed operation",
                lambda name=name, trace=trace: smoke(name, trace))
               for name in wl.WORKLOADS for trace in (0, 1)]
    ok = True
    try:
        for name, check in checks:
            passed = check()
            ok = ok and passed
            print(f"{'PASS' if passed else 'FAIL'}  {name}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
