"""JSON configuration files and report documents.

Rationals cross the wire as canonical strings "p/q" (or "p"), never as
floats, so exactness survives serialization.  Three config kinds are
discriminated by a "kind" field:

    {"kind": "ceva", "vertices": [[qx, qy], ...], "M": [qx, qy],
     "s": 1, "t": 1}
    {"kind": "inscribed", "radius": q, "params": [q, ...],
     "lines": [{"second_param": q} | {"through": [qx, qy]}, ...],
     "s": 1, "t": 1}
    {"kind": "counterexample", "vertices": [[qx, qy]] * 5,
     "M": [qx, qy], "seed": 0}

No object may repeat a key, and each kind takes exactly the fields
listed in _FIELDS.  Parse errors name the offending field; structural
invariant failures raise InvariantViolation while geometric degeneracy
raises DegenerateConfig, because the CLI maps them to different exit
codes.

Run reports are dicts whose ``"factors"`` hold the kernel's `Factor`s
themselves, each written as the row `factor_entry` defines.  Their text
is exactly ``json.dumps(doc, indent=2, default=factor_entry)``, written
in one pass by `ReportEncoder`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Union

from .ceva import MAX_VERTICES, CevaConfig, Counterexample, Factor, ProductReport
from .circle import InscribedConfig, InscribedReport
from .errors import InvalidRational, InvariantViolation, MalformedJson
from .frozen import Frozen, rational_text
from .geometry import Point, format_rational, parse_parts


class CounterexampleInput(Frozen):
    """Raw ingredients for the pentagon counterexample construction.

    ``seed`` is echoed in the report; the construction does not use it.
    """

    _fields = ("vertices", "pivot", "seed")
    vertices: tuple[Point, ...]
    pivot: Point
    seed: int


# Most work one config may ask of the kernel.  Each of its n*t side
# factors costs (B + 120)^2 units to build, B being the bit length of its
# largest operand: its exact products cost about B^2, and its fixed
# overhead about as much as 120 more bits.  Multiplying the factors out
# is priced at n * P^2 / 10 units more per factor, P being the operand
# bits one vertex adds to the product (B for a ceva config).  That is a
# price, not the algorithm (`factor_product` cross-cancels each vertex's
# run and multiplies the runs' pairs in a balanced tree), and it
# overprices ceva configs with a large t, whose runs telescope (a FOUND
# in CHANGES.md).  MAX_VERTICES and MAX_DIGITS alone admit inputs that
# run for minutes; at this limit a config verifies in at most about 1.5 s
# (2-core x86-64 VM, Python 3.11.7).
MAX_WORK = 1_200_000_000

# Longest document parse_config decodes, in bytes (in characters for a
# str).  The digit and vertex limits admit documents of up to about 1.6 MB
# in compact JSON (an inscribed 256-gon whose through-points and
# parameters all have 1000-digit parts); the rest is room for whitespace.
MAX_BYTES = 4 * 2**20

ParsedConfig = Union[CevaConfig, InscribedConfig, CounterexampleInput]

_FIELDS = {
    "ceva": {"kind", "vertices", "M", "s", "t"},
    "inscribed": {"kind", "radius", "params", "lines", "s", "t"},
    "counterexample": {"kind", "vertices", "M", "seed"},
}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InvariantViolation(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _parts(value, where: str) -> tuple[int, int]:
    """The integer parts of the rational string ``value``; errors name
    the field ``where``."""
    if not isinstance(value, str):
        raise InvalidRational(f"{where}: rationals must be strings, got {value!r}")
    try:
        return parse_parts(value)
    except InvalidRational as exc:
        raise InvalidRational(f"{where}: {exc}") from exc


def _label(key: str, index: int | None) -> str:
    return key if index is None else f"{key}[{index}]"


def _rational(value, key: str, index: int | None = None) -> Fraction:
    """The rational string ``value`` of field ``key``, or of its entry
    ``index``; the label is built only for an error."""
    try:
        return Fraction(*parse_parts(value))
    except InvalidRational:
        return Fraction(*_parts(value, _label(key, index)))


def _point(value, key: str, index: int | None = None) -> Point:
    """The point of the [x, y] pair ``value`` of field ``key``, or of its
    entry ``index``.  A valid pair is parsed with no label; an invalid
    one is parsed again, labelled, so that its error names the field,
    e.g. ``vertices[3][1]: ...``."""
    if isinstance(value, list) and len(value) == 2:
        try:
            return Point.from_parts(*parse_parts(value[0]),
                                    *parse_parts(value[1]))
        except InvalidRational:
            pass
    where = _label(key, index)
    if not isinstance(value, list) or len(value) != 2:
        raise InvariantViolation(f"{where}: a point is a [x, y] pair")
    return Point.from_parts(*_parts(value[0], f"{where}[0]"),
                            *_parts(value[1], f"{where}[1]"))


def _field(doc: dict, key: str):
    if key not in doc:
        raise InvariantViolation(f"missing field {key!r}")
    return doc[key]


def _int(doc: dict, key: str) -> int:
    value = _field(doc, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvariantViolation(f"{key}: expected an integer, got {value!r}")
    return value


def _entries(doc: dict, key: str, what: str) -> list:
    """The list field ``key``, at most MAX_VERTICES long: the limit holds
    before any entry is parsed, so a long document is cheap to reject."""
    value = _field(doc, key)
    if not isinstance(value, list):
        raise InvariantViolation(f"{key}: expected a list of {what}")
    if len(value) > MAX_VERTICES:
        raise InvariantViolation(f"{key}: a polygon has at most {MAX_VERTICES} "
                                 f"vertices, got {len(value)} entries")
    return value


def _points(doc: dict, key: str) -> tuple[Point, ...]:
    return tuple(_point(p, key, i)
                 for i, p in enumerate(_entries(doc, key, "points")))


def _bits(parts) -> int:
    """Largest bit length among the integers ``parts``, 0 for none."""
    return max(map(int.bit_length, parts), default=0)


def _check_work(n: int, t: int, bits: int, product_bits: int) -> None:
    """Raise InvariantViolation when the n*t side factors of a config
    whose largest operand has ``bits`` bits, and their product, to which
    each vertex adds ``product_bits`` bits of operands, would cost over
    MAX_WORK."""
    # Any other t is an invalid split, which the constructor reports.
    factors = n * t if 0 < t < n else 0
    work = factors * ((bits + 120) ** 2 + n * product_bits ** 2 // 10)
    if work > MAX_WORK:
        raise InvariantViolation(
            f"config needs {work} units of work ({factors} factors with "
            f"{bits}-bit operands), over the limit of {MAX_WORK}")


def parse_config(data: Union[bytes, str]) -> ParsedConfig:
    """Parse and validate a config document.

    Returns a fully validated CevaConfig or InscribedConfig, or the raw
    CounterexampleInput (validated for shape; the geometric work happens
    in the builder).  A document longer than MAX_BYTES is rejected
    before it is decoded.
    """
    if len(data) > MAX_BYTES:
        raise InvariantViolation(f"config is longer than {MAX_BYTES} bytes")
    try:
        doc = json.loads(data, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers undecodable bytes and integers past
        # Python's digit limit; RecursionError covers deep nesting.
        raise MalformedJson(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvariantViolation("top level must be a JSON object")
    kind = _field(doc, "kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise InvariantViolation(
            f"kind: expected 'ceva', 'inscribed' or 'counterexample', got {kind!r}")
    unknown = doc.keys() - _FIELDS[kind]
    if unknown:
        raise InvariantViolation(f"unknown field(s) for kind {kind!r}: "
                                 f"{', '.join(map(repr, sorted(unknown)))}")
    if kind == "ceva":
        vertices = _points(doc, "vertices")
        pivot = _point(_field(doc, "M"), "M")
        s, t = _int(doc, "s"), _int(doc, "t")
        bits = _bits(c for p in (*vertices, pivot) for c in p.parts)
        _check_work(len(vertices), t, bits, bits)
        return CevaConfig(vertices, pivot, s, t)
    if kind == "inscribed":
        radius = _rational(_field(doc, "radius"), "radius")
        params = tuple(_rational(u, "params", i) for i, u in enumerate(
            _entries(doc, "params", "rationals")))
        specs = tuple(_line_spec(item, f"lines[{i}]") for i, item in enumerate(
            _entries(doc, "lines", "line specs")))
        s, t = _int(doc, "s"), _int(doc, "t")
        # A circle point of parameter p/q on radius a/b has parts
        # a(q^2 - p^2), 2apq and b(q^2 + p^2).  A through-point's own
        # parts, up to twice its bits at a common denominator, enter the
        # second circle point of its line and so the chord products.
        circle_bits = _bits((radius.numerator, radius.denominator)) + 2 * _bits(
            c for u in (*params, *(spec for spec in specs
                                   if not isinstance(spec, Point)))
            for c in (u.numerator, u.denominator))
        through_bits = _bits(c for spec in specs if isinstance(spec, Point)
                             for c in spec.parts)
        _check_work(len(params), t, max(circle_bits, through_bits),
                    circle_bits + 2 * through_bits)
        return InscribedConfig(radius, params, specs, s, t)
    vertices = _points(doc, "vertices")
    if len(vertices) != 5:
        raise InvariantViolation(
            f"vertices: counterexample needs exactly 5, got {len(vertices)}")
    return CounterexampleInput(vertices, _point(_field(doc, "M"), "M"),
                               _int(doc, "seed"))


def _line_spec(item, where: str):
    if not isinstance(item, dict) or len(item) != 1:
        raise InvariantViolation(
            f"{where}: expected {{'second_param': q}} or {{'through': [x, y]}}")
    if "second_param" in item:
        return _rational(item["second_param"], f"{where}.second_param")
    if "through" in item:
        return _point(item["through"], f"{where}.through")
    raise InvariantViolation(f"{where}: unknown line spec {item!r}")


def point_to_json(p: Point) -> list[str]:
    xn, xd, yn, yd = p.parts
    return [rational_text(xn, xd), rational_text(yn, yd)]


def config_to_dict(cfg: ParsedConfig) -> dict:
    """Serialize any parsed config back to its JSON document form."""
    if isinstance(cfg, CevaConfig):
        return {
            "kind": "ceva",
            "vertices": [point_to_json(v) for v in cfg.vertices],
            "M": point_to_json(cfg.pivot),
            "s": cfg.s,
            "t": cfg.t,
        }
    if isinstance(cfg, InscribedConfig):
        lines = []
        for spec in cfg.line_specs:
            if isinstance(spec, Point):
                lines.append({"through": point_to_json(spec)})
            else:
                lines.append({"second_param": format_rational(spec)})
        return {
            "kind": "inscribed",
            "radius": format_rational(cfg.radius),
            "params": [format_rational(u) for u in cfg.params],
            "lines": lines,
            "s": cfg.s,
            "t": cfg.t,
        }
    if isinstance(cfg, CounterexampleInput):
        return {
            "kind": "counterexample",
            "vertices": [point_to_json(v) for v in cfg.vertices],
            "M": point_to_json(cfg.pivot),
            "seed": cfg.seed,
        }
    raise TypeError(f"cannot serialize {cfg!r}")


def factor_entry(f: Factor) -> dict:
    """The report row of a factor; its value is the text of
    format_rational(f.value), from the stored pair."""
    return {"i": f.i, "j": f.j, "value": rational_text(f.num, f.den)}


def ceva_run_report(cfg: CevaConfig, report: ProductReport) -> dict:
    return {
        "kind": "ceva",
        "n": cfg.n,
        "s": cfg.s,
        "t": cfg.t,
        "factors": report.factors,
        "product": format_rational(report.product),
        "expected": format_rational(report.expected),
        "holds": report.holds,
        "diagnostics": {},
    }


def inscribed_run_report(report: InscribedReport) -> dict:
    cfg = report.config
    return {
        "kind": "inscribed",
        "n": cfg.n,
        "s": cfg.s,
        "t": cfg.t,
        "factors": report.factors,
        "product": format_rational(report.lhs),
        "expected": (None if report.expected is None
                     else format_rational(report.expected)),
        "holds": report.holds,
        "diagnostics": {
            "lhs_squared": format_rational(report.lhs_squared),
            "rhs_squared": format_rational(report.rhs_squared),
            "second_circle_points": [point_to_json(p) for p in cfg.m_primes],
        },
    }


def counterexample_run_report(result: Counterexample, seed: int) -> dict:
    """The run report of a counterexample.

    Ratio k, on side k, is held as Factor(k, k, ratio), written as
    {"i": k, "j": k, ...}: both labels name the side.
    `opposite_vertex_product`, for the same pentagon split (s = 2,
    t = 1), labels the ratio on side k with the cevian's vertex,
    i = (k + 2) % 5 + 1.
    """
    return {
        "kind": "counterexample",
        "n": 5,
        "s": 2,
        "t": 1,
        "factors": tuple(Factor(k, k, r)
                         for k, r in enumerate(result.ratios, start=1)),
        "product": format_rational(result.product),
        "expected": "-1",
        "holds": result.holds,
        "K": format_rational(result.K),
        "branch": result.branch,
        "concurrent": result.concurrent,
        "diagnostics": {
            "seed": seed,
            "meet_points": [point_to_json(p) for p in result.meet_points],
        },
    }


class ReportEncoder(json.JSONEncoder):
    """Writes exactly the text of
    ``json.dumps(doc, indent=2, default=factor_entry)``, in one pass.

    Given an indent, json's own encoder (CPython 3.10-3.13) runs its
    pure-Python generators item by item; this one appends each item's
    text to one list, a `Factor`'s whole row as one piece.  Pass it as
    ``json.dumps(doc, indent=2, cls=ReportEncoder)``: the options are
    not read, the text is always that of ``indent=2``.  It covers dicts
    with str keys, lists and tuples, str, int, finite float, bool, None
    and Factor.  Any other value raises TypeError, as json does, and a
    NaN or infinity ValueError, as json does with ``allow_nan=False``.
    `default` hands json's own encoder the same rows, so
    ``json.dump(doc, fp, indent=2, cls=ReportEncoder)`` writes the same
    text.
    """

    def encode(self, o) -> str:
        parts: list[str] = []
        _write(o, "\n", parts.append)
        return "".join(parts)

    def default(self, o):
        if isinstance(o, Factor):
            return factor_entry(o)
        return super().default(o)


_escape = json.encoder.encode_basestring_ascii
_CONTAINERS = (dict, list, tuple)


def _write(o, nl: str, add) -> None:
    """Add the text of ``o`` to ``add``, ``nl`` being the newline and
    indent of the line it starts on.  Strings, the most common values,
    are written in place; only containers recurse."""
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            add("{}")
            return
        comma = "," + inner
        sep = "{" + inner
        for key, value in o.items():
            add(sep)
            add(_escape(key))
            add(": ")
            sep = comma
            if isinstance(value, str):
                add(_escape(value))
            elif isinstance(value, _CONTAINERS):
                _write(value, inner, add)
            else:
                add(_leaf(value, inner))
        add(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            add("[]")
            return
        comma = "," + inner
        sep = "[" + inner
        for value in o:
            add(sep)
            sep = comma
            if value.__class__ is Factor:
                # A report's factor rows, its most common list items.
                add(_row(value, inner))
            elif isinstance(value, str):
                add(_escape(value))
            elif isinstance(value, _CONTAINERS):
                _write(value, inner, add)
            else:
                add(_leaf(value, inner))
        add(nl + "]")
    else:
        add(_escape(o) if isinstance(o, str) else _leaf(o, nl))


def _row(f: Factor, nl: str) -> str:
    """The text of factor_entry(f), ``nl`` being the newline and indent
    of the line it starts on.  Its value text has no character to
    escape."""
    inner = nl + "  "
    return (f'{{{inner}"i": {f.i},{inner}"j": {f.j},{inner}"value": '
            f'"{rational_text(f.num, f.den)}"{nl}}}')


def _leaf(o, nl: str) -> str:
    """The JSON text of a value that is neither a str nor a container,
    ``nl`` being the newline and indent of the line it starts on."""
    if o.__class__ is Factor:
        return _row(o, nl)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        raise ValueError("Out of range float values are not JSON compliant")
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    "is not JSON serializable")
