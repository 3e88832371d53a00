"""polyceva benchmark: fuzz throughput, verify latency, per-layer timings.

    python3 perfbench/run.py --workload fuzz-docs --seed 2026 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each
    python3 perfbench/run.py --pin                   # rewrite perfbench/expected.json
    python3 perfbench/selftest.py                    # check the gate and smoke-run

Run from the root of a checkout; polyceva is imported from ``src/`` and
the CLI is started with ``PYTHONPATH=src``.  Scratch files go to
``.perfbench/``.  Standard library only.

Every run measures set-up (fresh interpreters importing polyceva.cli,
and bare ``python -c pass`` as the machine's baseline) before and after
its workload, and first runs the gate, untraced: the leading operations of each of the
four streams (fuzz-ceva, fuzz-inscribed, verify-docs, verify-cli) at the
default seed, each compared with its expected answer and its pinned
sha256 digest (perfbench/expected.json).  Then:

* ``--trace 0`` runs the chosen workload in this process as a closed
  loop until its operations have taken ``--seconds`` and at least
  MIN_OPS have run, and reports the end-to-end metrics: setup_s,
  ops_per_s (per second spent inside operations), op_ms_p50, op_ms_p90
  and peak_rss_mb.
* ``--trace 1`` runs a fixed number of operations, each once untraced
  and then once traced, and reports each layer's self time (seconds,
  over the traced operations), the per-layer counts and the tracing
  overhead.  Every layer is called by both workloads.  The fixed count
  makes every count repeat exactly for a given seed.

Any operation whose exit code, verdict or digest is wrong makes the run
print ``"correct": false`` with no metrics and exit 1.  The last stdout
line is the JSON result; the lines before it are a readable table and a
``record`` line with the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 9
MIN_OPS = 100  # so that p90 has at least ten samples above it
DIGEST_OPS = 100
IMPORT_CODE = ("import time; t = time.perf_counter(); import polyceva.cli; "
               "print(time.perf_counter() - t)")
NO_WAITS = ("none: polyceva runs in one process with no threads or queues, "
            "so no layer waits and no wait time is reported")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sample_setup(root: Path, samples: dict[str, list[float]]) -> None:
    """Add SETUP_REPEATS wall times of fresh interpreters importing
    polyceva.cli (setup_s), the import alone as timed inside them
    (cli.import_s), and bare interpreters (cli.interp_start_s), alternated
    so both see the same machine.  One untimed round first fills the
    bytecode cache."""
    env = wl.child_env(root)
    for i in range(SETUP_REPEATS + 1):
        code, _, bare_wall, _ = wl.spawn(["-c", "pass"], root, env)
        code2, out, wall, _ = wl.spawn(["-c", IMPORT_CODE], root, env)
        if code or code2:
            raise RuntimeError("a fresh interpreter could not import polyceva.cli")
        if i:
            samples["cli.interp_start_s"].append(bare_wall)
            samples["setup_s"].append(wall)
            samples["cli.import_s"].append(float(out))


class Ledger:
    """Every checked operation: its failures and the digests of its output."""

    def __init__(self, pinned: dict | None):
        self.pinned = pinned
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}

    def record(self, w, k: int, code: int, out: bytes, require_pin: bool) -> None:
        """Check operation k.  Its digest is taken when it is pinned, when
        the gate requires a pin, or when it is among the first DIGEST_OPS
        operations of the run; it must equal the pinned digest and that of
        any earlier run of the same input."""
        self.attempted += 1
        key = w.key(k)
        error = w.check(k, code, out)
        want = (self.pinned or {}).get(w.name, {}).get(key)
        if error is None and (require_pin or want is not None or k < DIGEST_OPS):
            got = wl.digest(code, out + w.stream_bytes(k))
            seen = self.digests.setdefault(w.name, {}).setdefault(key, got)
            if seen != got:
                error = f"digest {got[:12]} differs from an earlier run of this input"
            elif want is None and require_pin and self.pinned is not None:
                error = "no pinned digest"
            elif want is not None and want != got:
                error = f"digest {got[:12]} differs from pinned {want[:12]}"
        if error:
            self.failures.append(f"{w.name} op {k} ({key}): {error}")


def gate(root: Path, workdir: Path, ledger: Ledger) -> None:
    """The leading operations of every stream at the default seed."""
    null = tracing.NullTracer()
    for cls in wl.GATE:
        w = cls(wl.DEFAULT_SEED, root, workdir / cls.name)
        w.prepare(cls.canary_ops)
        for k in range(cls.canary_ops):
            code, out = w.op(k, null)
            ledger.record(w, k, code, out, require_pin=True)


def timed_loop(w, seconds: float, ledger: Ledger) -> tuple[list[float], float]:
    """Closed loop over operations 0, 1, ... until they have taken
    ``seconds`` and at least MIN_OPS have run.  Each output is checked and
    dropped as soon as its operation has been timed: the check is the
    caller's work, not the program's, and keeping outputs would grow the
    benchmark's memory with the program's speed."""
    null = tracing.NullTracer()
    latencies = []
    busy = 0.0
    while busy < seconds or len(latencies) < MIN_OPS:
        k = len(latencies)
        t0 = time.perf_counter()
        code, out = w.op(k, null)
        latency = time.perf_counter() - t0
        latencies.append(latency)
        busy += latency
        ledger.record(w, k, code, out, require_pin=False)
    return latencies, busy


def layer_metrics(tracer, setup: dict, overhead: float) -> dict:
    """Self times and counts of the traced pass.  The counts describe the
    workload's own seeded stream and repeat exactly for a given seed."""
    st = tracer.self_times()
    c = tracer.counts
    draws = c["fuzz.completed"] + c["fuzz.rejections"]
    seconds = {
        "fuzz.generate_s": st["fuzz"] + st["fuzz.rejected"],
        "ceva.validate_s": st["ceva.validate"],
        "ceva.product_s": st["ceva.product"],
        "ceva.counterexample_s": st["ceva.counterexample"],
        "circle.construct_s": st["circle.construct"],
        "circle.identity_s": st["circle.identity"],
        "circle.support_s": st["circle.support"],
        "circle.concurrent_s": st["circle.concurrent"],
        "configio.parse_s": st["configio.parse"],
        "configio.report_s": st["configio.report"],
        "cli.emit_s": st["cli.emit"],
        "cli.main_s": st["cli.main"],
        "cli.import_s": setup["cli.import_s"],
        "cli.interp_start_s": setup["cli.interp_start_s"],
        "svgout.render_s": st["svgout.render"],
    }
    counts = {
        "fuzz.rejections": c["fuzz.rejections"],
        "ceva.factors": c["ceva.factors"],
        "circle.crossings": c["circle.crossings"],
        "geometry.factor_bits_max": tracer.maxima.get("geometry.factor_bits_max", 0),
        "configio.bytes_in": c["configio.bytes_in"],
        "configio.bytes_out": c["configio.bytes_out"],
        "svgout.bytes": c["svgout.bytes"],
    }
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["fuzz.accept_ratio"] = (c["fuzz.completed"] / draws, "ratio")
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics


def run_one(args) -> int:
    pinned = json.loads(EXPECTED.read_text())
    workdir = (ROOT / ".perfbench"
               / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        return _run_one(args, pinned, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_one(args, pinned: dict, workdir: Path) -> int:
    # Set-up is sampled before and after the workload, so that its median
    # sees the machine over the whole run, as the workload's metrics do.
    setup_samples = {"setup_s": [], "cli.import_s": [], "cli.interp_start_s": []}
    sample_setup(ROOT, setup_samples)
    ledger = Ledger(pinned)
    w = wl.WORKLOADS[args.workload](args.seed, ROOT, workdir / "run")
    gate(ROOT, workdir / "gate", ledger)
    if args.trace:
        tracer = tracing.Tracer()
        samples = w.trace_ops
        w.prepare(samples)
        null = tracing.NullTracer()
        untraced = traced = 0.0
        for k in range(samples):
            start = time.perf_counter()
            code, out = w.op(k, null)
            untraced += time.perf_counter() - start
            ledger.record(w, k, code, out, require_pin=False)
            tracer.op = k
            with tracing.instrument(tracer):
                start = time.perf_counter()
                code, out = w.op(k, tracer)
                traced += time.perf_counter() - start
            ledger.record(w, k, code, out, require_pin=False)
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps({"traced": tracer.spans}))
        line = (f"  traced run: each of {samples} ops untraced then traced: "
                f"{samples / untraced:.4g} and {samples / traced:.4g} ops/s")
    else:
        w.prepare(sys.maxsize)  # the loop's op count is not known in advance
        latencies, busy = timed_loop(w, args.seconds, ledger)
        samples = len(latencies)
        line = (f"  timed loop: {samples} ops in {busy:.3f} s (p90 has "
                f"{samples - math.ceil(0.9 * samples)} samples above it)")
    sample_setup(ROOT, setup_samples)
    setup = {name: statistics.median(values) for name, values in setup_samples.items()}
    if args.trace:
        metrics = layer_metrics(tracer, setup, traced / untraced - 1)
    else:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "ops_per_s": (samples / busy, "1/s"),
            "op_ms_p50": (percentile(latencies, 0.5) * 1000, "ms"),
            "op_ms_p90": (percentile(latencies, 0.9) * 1000, "ms"),
            "peak_rss_mb": (w.peak_rss_mb(), "MB"),
        }

    keys = [w.key(k) for k in range(min(samples, DIGEST_OPS))]
    run_digest = hashlib.sha256("".join(
        ledger.digests.get(w.name, {}).get(key, "failed") for key in keys
    ).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "workload_seeds": w.seeds(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cli.interp_start_s": setup["cli.interp_start_s"],
        "samples": samples, "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "digest_first_ops": {"ops": len(keys), "sha256": run_digest},
        "waits": NO_WAITS,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={record['python']} nproc={record['nproc']} "
          f"interp_start_s={setup['cli.interp_start_s']:.4f}")
    print(line)
    for failure in ledger.failures[:20]:
        print(f"  FAIL {failure}")
    fail_share = len(ledger.failures) / ledger.attempted
    print(f"  fail_share {fail_share:.4g} ({len(ledger.failures)} of "
          f"{ledger.attempted} ops, gate included)")
    correct = not ledger.failures
    if correct:
        for name, (value, unit) in metrics.items():
            print(f"  {name:26s} {value:.6g} {unit}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": ({name: {"value": value, "unit": unit}
                     for name, (value, unit) in metrics.items()} if correct else {}),
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        *table, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(table))
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def pin() -> int:
    """Rewrite expected.json from the gate operations, refusing if any of
    them fails its own check."""
    workdir = ROOT / ".perfbench" / f"pin-{os.getpid()}"
    ledger = Ledger(None)
    try:
        gate(ROOT, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ledger.failures:
        print("\n".join(ledger.failures), file=sys.stderr)
        return 1
    EXPECTED.write_text(json.dumps(ledger.digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {ledger.attempted} digests to {EXPECTED}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from the gate operations")
    args = parser.parse_args(argv)
    if args.pin:
        return pin()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
