"""Spans and counts for the traced run.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (or None) and ``op`` the id of the operation that
caused it.  Spans are kept in memory and written out once, at the end.

Nothing inside polyceva is edited.  `instrument` swaps the module-level
names through which polyceva's own modules call each other's public
functions (``polyceva.fuzz.ceva_product``, ``polyceva.cli.parse_config``,
...) for recording wrappers while a traced pass runs, and puts the
originals back afterwards.  The program does the same work either way;
the wrappers only add the span bookkeeping, which is what the tracing
overhead metric measures.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter


class Tracer:
    """In-memory span recorder with per-layer counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def adopt(self, path: str) -> None:
        """Merge the spans a traced child process saved to ``path`` under
        the currently open span."""
        with open(path) as f:
            doc = json.load(f)
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, p, _ in doc["spans"]:
            self.spans.append([name, start, end,
                               parent if p is None else base + p, self.op])
        self.counts.update(doc["counts"])
        for name, value in doc["maxima"].items():
            self.note_max(name, value)

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "maxima": self.maxima}, f)

    def self_times(self) -> Counter:
        """Seconds per span name, each span minus its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            total[name] += end - start - inner
        return total


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _bits(values, tracer) -> None:
    for v in values:
        tracer.note_max("geometry.factor_bits_max",
                        max(v.numerator.bit_length(), v.denominator.bit_length()))


def _ceva_factors(tracer, args, report) -> None:
    tracer.counts["ceva.factors"] += len(report.factors)
    _bits((f.value for f in report.factors), tracer)


def _crossings(tracer, args, report) -> None:
    tracer.counts["circle.crossings"] += len(report.factors)
    _bits((f.value for f in report.factors), tracer)


def _counterexample_ratios(tracer, args, result) -> None:
    tracer.counts["ceva.factors"] += len(result.ratios)
    _bits(result.ratios, tracer)


def _bytes_in(tracer, args, parsed) -> None:
    tracer.counts["configio.bytes_in"] += len(args[0])


def _bytes_out(tracer, args, text) -> None:
    # Only run reports count.  A fuzz report is not one, and its
    # wall-clock field would keep the count from repeating exactly.
    if "elapsed_seconds" not in args[0]:
        tracer.counts["configio.bytes_out"] += len(text.encode())


def _fuzz_draws(tracer, args, report) -> None:
    tracer.counts["fuzz.completed"] += report.trials_completed
    tracer.counts["fuzz.rejections"] += report.rejections


def _svg_bytes(tracer, args, doc) -> None:
    tracer.counts["svgout.bytes"] += len(doc.encode())


class _Traced:
    """Callable stand-in for a public function or class.

    ``isinstance`` against it is forwarded to the original, so swapping
    a class name (``polyceva.configio.CevaConfig``) keeps the module's
    own type tests working.
    """

    def __init__(self, tracer, fn, name, rejected, observe):
        self.tracer = tracer
        self.fn = fn
        self.name = name
        self.rejected = rejected
        self.observe = observe

    def __call__(self, *args, **kwargs):
        with self.tracer.span(self.name) as rec:
            try:
                result = self.fn(*args, **kwargs)
            except Exception:
                if self.rejected:
                    rec[0] = self.rejected
                raise
        if self.observe:
            self.observe(self.tracer, args, result)
        return result

    def __instancecheck__(self, obj) -> bool:
        return isinstance(obj, self.fn)


class _TracedJson:
    """``polyceva.cli.json`` with ``dumps`` traced as the emit layer."""

    def __init__(self, tracer, real):
        self._real = real
        self.dumps = _Traced(tracer, real.dumps, "cli.emit", None, _bytes_out)

    def __getattr__(self, name):
        return getattr(self._real, name)


# (module, attribute, span name, span name when the call raises, observer).
# The "fuzz" span's self time is the generators' own work.  A constructor
# that raises inside them is a rejected draw: it counts as generation work
# (fuzz.generate_s), not as validation.
_PATCHES = (
    ("polyceva.fuzz", "fuzz_ceva", "fuzz", None, _fuzz_draws),
    ("polyceva.fuzz", "fuzz_inscribed", "fuzz", None, _fuzz_draws),
    ("polyceva.fuzz", "CevaConfig", "ceva.validate", "fuzz.rejected", None),
    ("polyceva.fuzz", "InscribedConfig", "circle.construct", "fuzz.rejected", None),
    ("polyceva.fuzz", "ceva_product", "ceva.product", None, _ceva_factors),
    ("polyceva.fuzz", "inscribed_identity_report", "circle.identity", None, _crossings),
    ("polyceva.fuzz", "chord_telescoping_squared", "circle.support", None, None),
    ("polyceva.fuzz", "similar_triangles_relation", "circle.support", None, None),
    ("polyceva.fuzz", "concurrent_secants_check", "circle.concurrent", None, _crossings),
    ("polyceva.configio", "CevaConfig", "ceva.validate", None, None),
    ("polyceva.configio", "InscribedConfig", "circle.construct", None, None),
    ("polyceva.cli", "fuzz_ceva", "fuzz", None, _fuzz_draws),
    ("polyceva.cli", "fuzz_inscribed", "fuzz", None, _fuzz_draws),
    ("polyceva.cli", "parse_config", "configio.parse", None, _bytes_in),
    ("polyceva.cli", "ceva_product", "ceva.product", None, _ceva_factors),
    ("polyceva.cli", "inscribed_identity_report", "circle.identity", None, _crossings),
    ("polyceva.cli", "concurrent_secants_check", "circle.concurrent", None, _crossings),
    ("polyceva.cli", "build_converse_counterexample", "ceva.counterexample", None,
     _counterexample_ratios),
    ("polyceva.cli", "ceva_run_report", "configio.report", None, None),
    ("polyceva.cli", "inscribed_run_report", "configio.report", None, None),
    ("polyceva.cli", "counterexample_run_report", "configio.report", None, None),
    ("polyceva.cli", "render_ceva_svg", "svgout.render", None, _svg_bytes),
    ("polyceva.cli", "render_inscribed_svg", "svgout.render", None, _svg_bytes),
    ("polyceva.cli", "render_counterexample_svg", "svgout.render", None, _svg_bytes),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record spans around polyceva's public calls until the block exits."""
    saved = []
    try:
        for module_name, attr, name, rejected, observe in _PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _Traced(tracer, original, name, rejected, observe))
        cli = importlib.import_module("polyceva.cli")
        saved.append((cli, "json", cli.json))
        cli.json = _TracedJson(tracer, cli.json)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
