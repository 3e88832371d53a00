"""The workloads: inputs made from a seed, one operation, and the check
of that operation's output.

Four streams of operations are defined here: fuzz-ceva, fuzz-inscribed,
verify-docs and verify-cli.  The benchmark runs two workloads: fuzz-docs,
which interleaves the three in-process streams, and verify-cli.

Each workload is a closed loop with one caller: operation k + 1 starts
when operation k has returned.  An operation returns ``(exit code,
output bytes)``.  `Workload.check` compares them with an answer known
without asking polyceva (the theorem's product, the exit code a
degenerate-by-construction input must get) and returns what is wrong,
or None.  Byte-level comparison against pinned digests lives in run.py.

Hostile inputs (5000-digit rationals, deep nesting, bytes that are not
UTF-8) are deliberately absent: they expose a robustness defect to be
fixed on its own, and are not traffic.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import polyceva.cli as cli
import polyceva.fuzz as pfuzz
from polyceva.configio import config_to_dict
from polyceva.fuzz import GenParams, gen_ceva_config, gen_inscribed_config

from tracing import Tracer

DEFAULT_SEED = 2026
HERE = Path(__file__).resolve().parent
CLI_MAIN = "import sys; from polyceva.cli import main; sys.exit(main(sys.argv[1:]))"


def digest(code: int, out: bytes) -> str:
    return hashlib.sha256(b"%d\n" % code + out).hexdigest()


def child_env(root: Path, **extra: str) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"), **extra)


def spawn(argv: list[str], root: Path, env: dict) -> tuple[int, bytes, float, int]:
    """Run one fresh interpreter to completion: exit code, stdout, wall
    seconds, and the child's own peak RSS in KiB."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, time.perf_counter() - start, usage.ru_maxrss


class Workload:
    name = ""
    trace_ops = 0    # operations in each pass of a traced run
    canary_ops = 16  # leading operations at DEFAULT_SEED pinned in expected.json

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir

    def prepare(self, count: int) -> None:
        """Make the inputs of operations 0 .. count-1, outside any timing."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def seeds(self) -> dict:
        return {"base": self.seed}

    def key(self, k: int) -> str:
        """Stable name of operation k's input, used to look up its digest."""
        raise NotImplementedError

    def op(self, k: int, tracer) -> tuple[int, bytes]:
        raise NotImplementedError

    def check(self, k: int, code: int, out: bytes) -> str | None:
        raise NotImplementedError

    def stream_bytes(self, k: int) -> bytes:
        """Input bytes operation k's output does not show, added to its
        digest so that a change to the seeded stream changes the digest.
        Computed outside any timing and tracing."""
        return b""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process, which runs the gate and
        then the whole timed loop."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _fuzz_outcome(report) -> tuple[int, bytes]:
    return (1 if report.failures else 0), _without_elapsed(report.to_dict())


def _without_elapsed(doc: dict) -> bytes:
    """A fuzz report without its wall-clock field, so that equal runs give
    equal bytes."""
    del doc["elapsed_seconds"]
    return json.dumps(doc, indent=2).encode()


def _fuzz_check(code: int, out: bytes, trials: int = 1) -> str | None:
    doc = json.loads(out)
    if doc["failures"]:
        return f"fuzz failures: {doc['failures'][0]['check']}"
    if doc["trials_completed"] != trials or code != 0:
        return f"trials_completed {doc['trials_completed']}, exit {code}"
    return None


class FuzzCeva(Workload):
    """fuzz_ceva at the acceptance settings: n 3..9, coordinate bound 10.

    Operation k is a one-trial batch whose GenParams seed is
    ``seed * 10**6 + k``, so each trial's latency is measured alone.
    """

    name = "fuzz-ceva"
    trace_ops = 600

    def params(self, k: int) -> GenParams:
        return GenParams(seed=self.seed * 10**6 + k, n_min=3, n_max=9,
                         coordinate_bound=10)

    def key(self, k: int) -> str:
        return f"fuzz_ceva seed={self.params(k).seed}"

    def op(self, k, tracer):
        return _fuzz_outcome(pfuzz.fuzz_ceva(self.params(k), 1))

    def check(self, k, code, out):
        return _fuzz_check(code, out)

    def stream_bytes(self, k):
        return json.dumps(config_to_dict(gen_ceva_config(self.params(k), 0))).encode()


class FuzzInscribed(Workload):
    """fuzz_inscribed with inscribed and concurrent trials interleaved:
    n 3..7, coordinate bound 10, GenParams seeds based on seed + 600 and
    seed + 700 (2626 and 2726 at the default seed)."""

    name = "fuzz-inscribed"
    trace_ops = 160

    def seeds(self):
        return {"inscribed": self.seed + 600, "concurrent": self.seed + 700}

    def params(self, k: int) -> tuple[GenParams, bool]:
        concurrent = k % 2 == 1
        base = self.seed + (700 if concurrent else 600)
        return GenParams(seed=base * 10**6 + k // 2, n_min=3, n_max=7,
                         coordinate_bound=10), concurrent

    def key(self, k):
        params, concurrent = self.params(k)
        return f"fuzz_inscribed concurrent={concurrent} seed={params.seed}"

    def op(self, k, tracer):
        params, concurrent = self.params(k)
        return _fuzz_outcome(pfuzz.fuzz_inscribed(params, 1, concurrent=concurrent))

    def check(self, k, code, out):
        return _fuzz_check(code, out)

    def stream_bytes(self, k):
        params, concurrent = self.params(k)
        return json.dumps(config_to_dict(
            gen_inscribed_config(params, 0, concurrent))).encode()


# --- verify-docs corpus -------------------------------------------------
#
# Documents are drawn by the benchmark itself and checked for general
# position with its own exact predicates, so the expected verdict of each
# is known before polyceva sees it.


class Expect(NamedTuple):
    kind: str  # "ceva", "inscribed", "counterexample" or "degenerate"
    code: int
    n: int


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rat(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _point(rng: random.Random, bound: int) -> tuple[Fraction, Fraction]:
    return _rat(rng, bound), _rat(rng, bound)


def _cross(u, v) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def _sides(i: int, s: int, t: int, n: int) -> list[int]:
    """0-based sides j (segment j, j+1) crossed by the line at vertex i."""
    return [(i + s + d) % n for d in range(t)]


def _ceva_general_position(vs, m, s: int, t: int) -> bool:
    n = len(vs)
    for i in range(n):
        d = _sub(m, vs[i])
        for j in _sides(i, s, t, n):
            a, b = vs[j], vs[(j + 1) % n]
            if (_cross(d, _sub(b, a)) == 0           # parallel to the side
                    or _cross(d, _sub(a, vs[i])) == 0  # crosses at an endpoint
                    or _cross(d, _sub(b, vs[i])) == 0):
                return False
    return True


def _split(rng: random.Random, n: int) -> tuple[int, int]:
    s = rng.randint(1, (n - 1) // 2)
    return s, n - 2 * s


def _ceva_doc(rng: random.Random, n: int, degenerate: bool) -> tuple[dict, Expect]:
    """A ceva doc with coordinate bound 1000 (n is 5..15 in the corpus).
    When ``degenerate``, the pivot is put on the line through A_i and an
    endpoint of a side A_i's line must cross, or on the parallel to that
    side through A_i, so polyceva must answer exit 3."""
    while True:
        s, t = _split(rng, n)
        vs = [_point(rng, 1000) for _ in range(n)]
        if len(set(vs)) < n:
            continue
        if degenerate:
            i = rng.randrange(n)
            j = rng.choice(_sides(i, s, t, n))
            a, b = vs[j], vs[(j + 1) % n]
            lam = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
            if lam == 1:
                continue
            direction = rng.choice([_sub(a, vs[i]), _sub(b, vs[i]), _sub(b, a)])
            m = (vs[i][0] + lam * direction[0], vs[i][1] + lam * direction[1])
            if m in vs:
                continue
            expect = Expect("degenerate", 3, n)
        else:
            m = _point(rng, 1000)
            if m in vs or not _ceva_general_position(vs, m, s, t):
                continue
            expect = Expect("ceva", 0, n)
        doc = {"kind": "ceva", "vertices": [[_fmt(x), _fmt(y)] for x, y in vs],
               "M": [_fmt(m[0]), _fmt(m[1])], "s": s, "t": t}
        return doc, expect


def _circle(u: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    den = 1 + u * u
    return r * (1 - u * u) / den, 2 * r * u / den


def _inscribed_doc(rng: random.Random, n: int) -> tuple[dict, Expect]:
    """An inscribed doc with bound 100 (n is 3..7 in the corpus) and one
    second parameter per vertex.  A chord through two circle points meets
    no third one, so the only general-position condition left is that no
    d_i is parallel to a side it must cross."""
    while True:
        s, t = _split(rng, n)
        radius = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        params = sorted({_rat(rng, 100) for _ in range(n)})
        if len(params) < n:
            continue
        seconds = []
        while len(seconds) < n:
            v = _rat(rng, 100)
            if v not in params:
                seconds.append(v)
        pts = [_circle(u, radius) for u in params]
        if any(_cross(_sub(_circle(seconds[i], radius), pts[i]),
                      _sub(pts[(j + 1) % n], pts[j])) == 0
               for i in range(n) for j in _sides(i, s, t, n)):
            continue
        doc = {"kind": "inscribed", "radius": _fmt(radius),
               "params": [_fmt(u) for u in params],
               "lines": [{"second_param": _fmt(v)} for v in seconds],
               "s": s, "t": t}
        return doc, Expect("inscribed", 0, n)


class VerifyDocs(Workload):
    """In-process ``cli.main(["verify", path])`` with stdout captured, over
    a seeded corpus written once at set-up: in every 20 docs, 10 valid
    ceva docs, 2 inscribed docs, the golden counterexample and 5
    degenerate ceva docs are verified, and one more valid doc of each kind
    is rendered with ``cli.main(["svg", path, "--out", file])``, so that
    svgout is measured in process too."""

    name = "verify-docs"
    trace_ops = 300
    corpus = 1500

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.expect: list[Expect] = []
        self.paths: list[Path] = []
        self.svg = workdir / "render.svg"

    def prepare(self, count):
        super().prepare(count)
        golden = self.root / "configs" / "pentagon_counterexample.json"
        counterexample = golden.read_bytes()
        for i in range(len(self.paths), min(count, self.corpus)):
            # Kind and n are fixed by position, not drawn, so every seed
            # gives the same mix and a run's cost varies little by seed.
            rng = random.Random(f"verify-docs:{self.seed}:{i}")
            slot, block = i % 20, i // 20
            if slot < 5:
                doc, expect = _ceva_doc(rng, 5 + block % 11, degenerate=True)
            elif slot < 6:
                doc, expect = None, Expect("counterexample", 0, 5)
            elif slot < 9:
                doc, expect = _inscribed_doc(rng, 3 + block % 5)
            else:
                doc, expect = _ceva_doc(rng, 5 + block % 11, degenerate=False)
            if slot in (8, 19):
                expect = expect._replace(kind="svg")
            path = self.workdir / f"doc-{self.seed}-{i}.json"
            path.write_bytes(counterexample if doc is None else json.dumps(doc).encode())
            self.paths.append(path)
            self.expect.append(expect)

    def key(self, k):
        command = "svg" if self.expect[k % self.corpus].kind == "svg" else "verify"
        return f"{command} doc {self.seed}:{k % self.corpus}"

    def op(self, k, tracer):
        argv = ["verify", str(self.paths[k % self.corpus])]
        if self.expect[k % self.corpus].kind == "svg":
            self.svg.unlink(missing_ok=True)
            argv = ["svg", argv[1], "--out", str(self.svg)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                tracer.span("cli.main"):
            code = cli.main(argv)
        if argv[0] == "svg":
            return code, self.svg.read_bytes() if self.svg.exists() else b""
        return code, out.getvalue().encode()

    def check(self, k, code, out):
        want = self.expect[k % self.corpus]
        if code != want.code:
            return f"{want.kind} doc: exit {code}, expected {want.code}"
        if want.kind == "degenerate":
            return None if out == b"" else "degenerate doc wrote a report"
        if want.kind == "svg":
            return None if out.startswith(b"<svg") else "svg: not an SVG document"
        report = json.loads(out)
        if report["holds"] is not True:
            return f"{want.kind} doc: holds is {report['holds']}"
        if want.kind == "ceva" and report["product"] != str((-1) ** want.n):
            return f"ceva doc n={want.n}: product {report['product']}"
        if want.kind == "inscribed":
            diag = report["diagnostics"]
            if diag["lhs_squared"] != diag["rhs_squared"]:
                return "inscribed doc: squared sides differ"
        if want.kind == "counterexample" and (report["product"] != "-1"
                                              or report["concurrent"] is not False):
            return "counterexample doc: product or concurrency wrong"
        return None


class VerifyCli(Workload):
    """One fresh interpreter per request, started with PYTHONPATH=src
    through polyceva.cli.main (``python -m polyceva.cli`` has no
    ``__main__`` guard and exits 0 silently).  The eleven requests (verify
    on the four golden configs, counterexample, svg of each golden, and a
    small ``fuzz`` batch of each engine, seeded by block) run in a seeded
    order, every one compared with its pinned digest.  The fuzz batches
    keep the fuzz layer measured here; they are small, so start-up still
    dominates."""

    name = "verify-cli"
    trace_ops = 33
    canary_ops = 11
    GOLDENS = ("triangle_centroid", "square_pivot", "inscribed_pentagon",
               "pentagon_counterexample")
    REQUESTS = tuple([("verify", c) for c in GOLDENS]
                     + [("counterexample", "pentagon_counterexample")]
                     + [("svg", c) for c in GOLDENS]
                     + [("fuzz", "ceva"), ("fuzz", "concurrent")])
    PRODUCTS = {"triangle_centroid": "-1", "square_pivot": "1",
                "pentagon_counterexample": "-1"}
    # kind: (trials, n_max, coordinate bound), n_min 3.  The ceva batch
    # draws small coordinates, so that degenerate draws are common and
    # every seed's traced pass counts some fuzz.rejections.
    FUZZ = {"ceva": (10, 9, 3), "concurrent": (2, 7, 10)}

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.peak_rss_kb = 0
        self.env = child_env(root)

    def request(self, k: int) -> tuple[str, str]:
        order = list(range(len(self.REQUESTS)))
        random.Random(f"verify-cli:{self.seed}:{k // len(order)}").shuffle(order)
        return self.REQUESTS[order[k % len(order)]]

    def fuzz_seed(self, k: int) -> int:
        return self.seed * 1000 + k // len(self.REQUESTS)

    def key(self, k):
        command, target = self.request(k)
        if command == "fuzz":
            return f"fuzz {target} seed={self.fuzz_seed(k)}"
        return f"{command} {target}"

    def op(self, k, tracer):
        command, target = self.request(k)
        svg = self.workdir / f"{target}.svg"
        if command == "fuzz":
            trials, n_max, bound = self.FUZZ[target]
            argv = ["fuzz", "--kind", target, "--trials", str(trials),
                    "--seed", str(self.fuzz_seed(k)), "--n-min", "3",
                    "--n-max", str(n_max), "--bound", str(bound)]
        else:
            argv = [command, f"configs/{target}.json"]
        if command == "svg":
            svg.unlink(missing_ok=True)
            argv += ["--out", str(svg)]
        with tracer.span("cli.process"):
            if isinstance(tracer, Tracer):
                spans = self.workdir / "child-spans.json"
                spans.unlink(missing_ok=True)
                env = child_env(self.root, PERFBENCH_SPANS=str(spans))
                code, out, _, rss = spawn([str(HERE / "child.py"), *argv], self.root, env)
                if spans.exists():
                    tracer.adopt(spans)
            else:
                code, out, _, rss = spawn(["-c", CLI_MAIN, *argv], self.root, self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        if command == "svg":
            out = svg.read_bytes() if svg.exists() else b""
        elif command == "fuzz" and out:
            out = _without_elapsed(json.loads(out))
        return code, out

    def check(self, k, code, out):
        command, target = self.request(k)
        if code != 0:
            return f"{command} {target}: exit {code}, expected 0"
        if not out:
            return f"{command} {target}: empty output"
        if command == "svg":
            return None if out.startswith(b"<svg") else "svg: not an SVG document"
        if command == "fuzz":
            return _fuzz_check(code, out, self.FUZZ[target][0])
        report = json.loads(out)
        if report["holds"] is not True:
            return f"{command} {target}: holds is {report['holds']}"
        want = self.PRODUCTS.get(target)
        if want is not None and report["product"] != want:
            return f"{command} {target}: product {report['product']}, expected {want}"
        return None

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024


class FuzzDocs(Workload):
    """All the in-process traffic in one stream: operation k is, in turn,
    the next fuzz-ceva trial, the next fuzz-inscribed trial and the next
    verify-docs document.  One run thus covers the fuzz harness, both
    engines, the parser, the report writer and the SVG writer."""

    name = "fuzz-docs"
    trace_ops = 600

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.parts = (FuzzCeva(seed, root, workdir), FuzzInscribed(seed, root, workdir),
                      VerifyDocs(seed, root, workdir))

    def part(self, k: int) -> tuple[Workload, int]:
        return self.parts[k % 3], k // 3

    def prepare(self, count):
        for part in self.parts:
            part.prepare(-(-count // 3))

    def seeds(self):
        return {"fuzz-ceva": self.seed, **self.parts[1].seeds(), "verify-docs": self.seed}

    def key(self, k):
        part, i = self.part(k)
        return part.key(i)

    def op(self, k, tracer):
        part, i = self.part(k)
        return part.op(i, tracer)

    def check(self, k, code, out):
        part, i = self.part(k)
        return part.check(i, code, out)

    def stream_bytes(self, k):
        part, i = self.part(k)
        return part.stream_bytes(i)


# Each stream's leading operations are pinned and checked on every run.
GATE = (FuzzCeva, FuzzInscribed, VerifyDocs, VerifyCli)
# The benchmark's workloads: the in-process streams interleaved, and the CLI.
WORKLOADS = {w.name: w for w in (FuzzDocs, VerifyCli)}
