"""Config file parsing, validation errors, and round-trip serialization."""

import io
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import polyceva.ceva
import polyceva.circle
import polyceva.configio
from polyceva.ceva import MAX_VERTICES, CevaConfig, Factor, ceva_product
from polyceva.circle import InscribedConfig
from polyceva.configio import (
    MAX_BYTES,
    MAX_WORK,
    CounterexampleInput,
    ReportEncoder,
    ceva_run_report,
    config_to_dict,
    factor_entry,
    parse_config,
)
from polyceva.errors import (
    DegenerateConfig,
    InvalidRational,
    InvariantViolation,
    MalformedJson,
)
from polyceva.fuzz import GenParams, gen_ceva_config, gen_inscribed_config
from polyceva.geometry import Point

from _golden import CASES, GOLDEN, expected as golden_expected

TRIANGLE_DOC = {
    "kind": "ceva",
    "vertices": [["0", "0"], ["4", "0"], ["0", "4"]],
    "M": ["4/3", "4/3"],
    "s": 1,
    "t": 1,
}


def dumps(doc) -> str:
    return json.dumps(doc)


class TestParseCeva:
    def test_valid_triangle(self):
        cfg = parse_config(dumps(TRIANGLE_DOC))
        assert isinstance(cfg, CevaConfig)
        assert cfg.n == 3
        assert (cfg.s, cfg.t) == (1, 1)

    def test_bad_split(self):
        doc = dict(TRIANGLE_DOC, s=2)
        with pytest.raises(InvariantViolation):
            parse_config(dumps(doc))

    def test_pivot_on_vertex(self):
        doc = dict(TRIANGLE_DOC, M=["4", "0"])
        with pytest.raises(InvariantViolation, match="pivot coincides with a vertex"):
            parse_config(dumps(doc))

    # Points are compared as canonical integers, so any spelling of a
    # vertex's coordinates is that vertex.
    def test_pivot_spelled_apart_from_its_vertex(self):
        doc = dict(TRIANGLE_DOC, M=["8/2", "0"])
        with pytest.raises(InvariantViolation, match="pivot coincides with a vertex"):
            parse_config(dumps(doc))

    @pytest.mark.parametrize("first, second", [("1/2", "2/4"), ("0", "-0"),
                                               ("+3", "3")])
    def test_duplicate_vertex_spellings(self, first, second):
        doc = dict(TRIANGLE_DOC, vertices=[[first, "1"], ["4", "0"], [second, "1"]])
        with pytest.raises(InvariantViolation,
                           match="vertices must be pairwise distinct"):
            parse_config(dumps(doc))

    def test_degenerate_geometry_is_not_a_parse_error(self):
        doc = dict(TRIANGLE_DOC, M=["0", "2"])
        with pytest.raises(DegenerateConfig):
            parse_config(dumps(doc))

    def test_zero_denominator(self):
        doc = dict(TRIANGLE_DOC, M=["1/0", "1"])
        with pytest.raises(InvalidRational) as err:
            parse_config(dumps(doc))
        assert "M" in str(err.value)

    def test_float_rational_rejected(self):
        doc = dict(TRIANGLE_DOC, M=[1.5, "1"])
        with pytest.raises(InvalidRational):
            parse_config(dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_config(b"{not json")

    def test_non_object_top_level(self):
        with pytest.raises(InvariantViolation):
            parse_config(b"[1, 2]")

    def test_unknown_kind(self):
        with pytest.raises(InvariantViolation):
            parse_config(dumps(dict(TRIANGLE_DOC, kind="pentagon")))

    def test_missing_field(self):
        doc = dict(TRIANGLE_DOC)
        del doc["s"]
        with pytest.raises(InvariantViolation) as err:
            parse_config(dumps(doc))
        assert "s" in str(err.value)

    def test_bool_is_not_an_int(self):
        with pytest.raises(InvariantViolation):
            parse_config(dumps(dict(TRIANGLE_DOC, s=True)))

    def test_point_shape(self):
        doc = dict(TRIANGLE_DOC, M=["1", "2", "3"])
        with pytest.raises(InvariantViolation):
            parse_config(dumps(doc))

    # Valid points are parsed with no field label; each error still
    # names its field in full.
    @pytest.mark.parametrize("field, value, error, message", [
        ("M", "12", InvariantViolation, "M: a point is a [x, y] pair"),
        ("M", {"x": "1", "y": "2"}, InvariantViolation,
         "M: a point is a [x, y] pair"),
        (1, "12", InvariantViolation, "vertices[1]: a point is a [x, y] pair"),
        (2, ["0", 4], InvalidRational,
         "vertices[2][1]: rationals must be strings, got 4"),
        (2, ["1/0", "4"], InvalidRational,
         "vertices[2][0]: zero denominator: '1/0'"),
        ("M", ["4/3", "x"], InvalidRational,
         "M[1]: not a rational string: 'x'"),
    ])
    def test_point_errors_name_the_field(self, field, value, error, message):
        if field == "M":
            doc = dict(TRIANGLE_DOC, M=value)
        else:
            vertices = list(TRIANGLE_DOC["vertices"])
            vertices[field] = value
            doc = dict(TRIANGLE_DOC, vertices=vertices)
        with pytest.raises(error) as err:
            parse_config(dumps(doc))
        assert str(err.value) == message


INSCRIBED_DOC = {
    "kind": "inscribed",
    "radius": "1",
    "params": ["-2", "-1/2", "0", "1/2", "2"],
    "lines": [
        {"second_param": "3"},
        {"second_param": "5"},
        {"second_param": "-3"},
        {"second_param": "7"},
        {"second_param": "1/3"},
    ],
    "s": 2,
    "t": 1,
}


class TestParseInscribed:
    def test_valid(self):
        cfg = parse_config(dumps(INSCRIBED_DOC))
        assert isinstance(cfg, InscribedConfig)
        assert cfg.n == 5
        assert all(isinstance(spec, Fraction) for spec in cfg.line_specs)
        # Line specs are the plain values, given as ints, strings or
        # Fractions alike.
        assert cfg == InscribedConfig(1, ("-2", "-1/2", 0, "1/2", 2),
                                      (3, "5", Fraction(-3), 7, "1/3"), 2, 1)

    def test_through_point_spec(self):
        doc = dict(INSCRIBED_DOC)
        doc["params"] = ["-2", "0", "1/2", "3"]
        doc["lines"] = [{"through": ["1/10", "1/10"]}] * 4
        doc["s"], doc["t"] = 1, 2
        cfg = parse_config(dumps(doc))
        assert all(isinstance(spec, Point) for spec in cfg.line_specs)
        assert cfg == InscribedConfig(1, (-2, 0, "1/2", 3),
                                      (Point("1/10", "1/10"),) * 4, 1, 2)

    def test_second_param_spelled_apart_from_a_vertex_parameter(self):
        doc = dict(INSCRIBED_DOC)
        doc["lines"] = [{"second_param": "2/4"}] + doc["lines"][1:]
        with pytest.raises(InvariantViolation,
                           match="line 1: second parameter 1/2 is a vertex parameter"):
            parse_config(dumps(doc))

    def test_common_point_of_separately_parsed_points(self):
        doc = dict(INSCRIBED_DOC, params=["-2", "0", "1/2", "3"], s=1, t=2)
        spellings = [["1/10", "1/10"], ["2/20", "+1/10"], ["10/100", "1/10"],
                     ["+1/10", "3/30"]]
        doc["lines"] = [{"through": point} for point in spellings]
        cfg = parse_config(dumps(doc))
        assert len({id(spec) for spec in cfg.line_specs}) == 4
        assert cfg.common_point == Point("1/10", "1/10")
        doc["lines"][2] = {"through": ["1/10", "1/9"]}
        assert parse_config(dumps(doc)).common_point is None

    def test_non_increasing_params(self):
        doc = dict(INSCRIBED_DOC, params=["0", "0", "1", "2", "3"])
        with pytest.raises(InvariantViolation):
            parse_config(dumps(doc))

    def test_unknown_line_spec(self):
        doc = dict(INSCRIBED_DOC)
        doc["lines"] = [{"chord": "3"}] + doc["lines"][1:]
        with pytest.raises(InvariantViolation) as err:
            parse_config(dumps(doc))
        assert "lines[0]" in str(err.value)

    def test_two_key_line_spec(self):
        doc = dict(INSCRIBED_DOC)
        doc["lines"] = [{"second_param": "3", "through": ["0", "0"]}] \
            + doc["lines"][1:]
        with pytest.raises(InvariantViolation):
            parse_config(dumps(doc))


COUNTEREXAMPLE_DOC = {
    "kind": "counterexample",
    "vertices": [["0", "0"], ["4", "0"], ["5", "3"], ["2", "5"], ["-1", "3"]],
    "M": ["2", "2"],
    "seed": 0,
}


class TestParseCounterexample:
    def test_valid(self):
        parsed = parse_config(dumps(COUNTEREXAMPLE_DOC))
        assert isinstance(parsed, CounterexampleInput)
        assert len(parsed.vertices) == 5
        assert parsed.seed == 0

    def test_wrong_vertex_count(self):
        doc = dict(COUNTEREXAMPLE_DOC, vertices=COUNTEREXAMPLE_DOC["vertices"][:4])
        with pytest.raises(InvariantViolation):
            parse_config(dumps(doc))

    def test_seed_must_be_int(self):
        doc = dict(COUNTEREXAMPLE_DOC, seed="7")
        with pytest.raises(InvariantViolation):
            parse_config(dumps(doc))


@pytest.mark.parametrize("doc, key", [
    pytest.param(doc, key, id=f"{doc['kind']}-{key}")
    for doc in (TRIANGLE_DOC, INSCRIBED_DOC, COUNTEREXAMPLE_DOC)
    for key in sorted(polyceva.configio._FIELDS[doc["kind"]])])
def test_missing_field_is_named(doc, key):
    doc = dict(doc)
    del doc[key]
    with pytest.raises(InvariantViolation) as err:
        parse_config(dumps(doc))
    assert str(err.value) == f"missing field {key!r}"


class TestRoundTrip:
    def test_ceva(self):
        cfg = parse_config(dumps(TRIANGLE_DOC))
        assert parse_config(dumps(config_to_dict(cfg))) == cfg

    def test_inscribed(self):
        cfg = parse_config(dumps(INSCRIBED_DOC))
        assert parse_config(dumps(config_to_dict(cfg))) == cfg

    def test_counterexample(self):
        parsed = parse_config(dumps(COUNTEREXAMPLE_DOC))
        assert parse_config(dumps(config_to_dict(parsed))) == parsed

    def test_generated_ceva_configs(self):
        params = GenParams(seed=71)
        for trial in range(8):
            cfg = gen_ceva_config(params, trial)
            assert parse_config(dumps(config_to_dict(cfg))) == cfg

    def test_generated_inscribed_configs(self):
        params = GenParams(seed=73, n_max=6)
        for trial in range(5):
            cfg = gen_inscribed_config(params, trial)
            assert parse_config(dumps(config_to_dict(cfg))) == cfg

    def test_canonicalizes_rationals(self):
        doc = dict(TRIANGLE_DOC, M=["8/6", "4/3"])
        cfg = parse_config(dumps(doc))
        assert config_to_dict(cfg)["M"] == ["4/3", "4/3"]


def _work(n: int, t: int, bits: int, product_bits: int) -> int:
    """The work estimate restated: n*t side factors of (bits + 120)^2
    each, plus n * product_bits^2 / 10 each for multiplying them out."""
    return n * t * ((bits + 120) ** 2 + n * product_bits ** 2 // 10)


def _largest_bits(n: int, t: int) -> int:
    """Largest operand bit length MAX_WORK admits for a ceva config with
    n vertices and this t, whose product operands have as many bits."""
    bits = 0
    while _work(n, t, bits + 1, bits + 1) <= MAX_WORK:
        bits += 1
    return bits


def _reject_kernel(monkeypatch):
    def kernel(*args):
        raise AssertionError("the kernel ran")
    monkeypatch.setattr(polyceva.ceva, "side_factors", kernel)
    monkeypatch.setattr(polyceva.circle, "side_factors", kernel)


class TestWorkBudget:
    """A 40-gon with s = 1 has 40 * 38 side factors.  Inputs just under
    the budget only reach the constructor, stubbed out: a real check
    there takes about a second."""

    N = 40
    BITS = _largest_bits(40, 38)

    def ceva_doc(self, bits: int) -> str:
        """Largest operand: a denominator of exactly ``bits`` bits."""
        vertices = [[str(k), str(k * k)] for k in range(self.N)]
        vertices[7][1] = f"1/{2 ** (bits - 1)}"
        return dumps({"kind": "ceva", "vertices": vertices, "M": ["1/2", "-1"],
                      "s": 1, "t": self.N - 2})

    def inscribed_doc(self, bits: int) -> str:
        """Largest operand: bits or bits + 1 bits.  A circle point of
        parameter u on radius 1 has parts of up to 2 * bits(u) + 1 bits."""
        params = [str(k) for k in range(self.N)]
        params[-1] = str(2 ** (bits // 2 - 1))
        return dumps({"kind": "inscribed", "radius": "1", "params": params,
                      "lines": [{"second_param": "1/3"}] * self.N,
                      "s": 1, "t": self.N - 2})

    @given(st.lists(st.fractions(max_denominator=2**80)
                    | st.integers(-2**90, 2**90).map(Fraction)))
    @example([])
    @example([Fraction(-2**70), Fraction(1, 2**70 - 1)])
    def test_operand_bits(self, values):
        """The largest bit length among numerators and denominators."""
        parts = (c for v in values for c in (v.numerator, v.denominator))
        assert polyceva.configio._bits(parts) == max(
            (max(v.numerator.bit_length(), v.denominator.bit_length())
             for v in values), default=0)

    def test_boundary(self):
        assert _work(self.N, self.N - 2, self.BITS, self.BITS) <= MAX_WORK
        assert _work(self.N, self.N - 2, self.BITS + 1, self.BITS + 1) > MAX_WORK
        assert self.BITS == 370

    @pytest.mark.parametrize("make", ["ceva_doc", "inscribed_doc"])
    def test_over_budget_rejected_before_the_kernel(self, monkeypatch, make):
        _reject_kernel(monkeypatch)
        doc = getattr(self, make)(self.BITS + 1)
        with pytest.raises(InvariantViolation, match=f"over the limit of {MAX_WORK}"):
            parse_config(doc)

    @pytest.mark.parametrize("make, bits, constructor", [
        ("ceva_doc", 0, "CevaConfig"),
        ("inscribed_doc", -1, "InscribedConfig"),
    ])
    def test_under_budget_reaches_the_constructor(self, monkeypatch, make, bits,
                                                  constructor):
        built = []
        monkeypatch.setattr(polyceva.configio, constructor,
                            lambda *args: built.append(args) or "built")
        assert parse_config(getattr(self, make)(self.BITS + bits)) == "built"
        assert len(built) == 1

    def test_unreduced_rationals_priced_reduced(self, monkeypatch):
        """The budget prices an inscribed rational by its reduced pair,
        the one the config stores: a common factor of 2^300 on the
        radius and the largest parameter adds no work."""
        built = []
        monkeypatch.setattr(polyceva.configio, "InscribedConfig",
                            lambda *args: built.append(args) or "built")
        doc = json.loads(self.inscribed_doc(self.BITS - 1))
        k = 2 ** 300
        doc["radius"] = f"{k}/{k}"
        doc["params"][-1] = f"{int(doc['params'][-1]) * k}/{k}"
        assert parse_config(json.dumps(doc)) == "built"
        radius, params = built[0][:2]
        assert radius == (1, 1)
        assert params[-1] == (2 ** ((self.BITS - 1) // 2 - 1), 1)

    def test_message_names_estimate_and_limit(self):
        with pytest.raises(InvariantViolation) as exc:
            parse_config(self.ceva_doc(self.BITS + 1))
        work = _work(self.N, self.N - 2, self.BITS + 1, self.BITS + 1)
        assert str(exc.value) == (
            f"config needs {work} units of work (1520 factors with "
            f"{self.BITS + 1}-bit operands), over the limit of {MAX_WORK}")

    def test_product_term_rejects_a_long_polygon(self, monkeypatch):
        """An inscribed 255-gon with t = 1 and a ~290-digit parameter: its
        255 side factors alone fit the budget, multiplying them out does
        not (unpriced, verify took 10-13 s here)."""
        _reject_kernel(monkeypatch)
        params = [str(k) for k in range(254)] + [str(10 ** 289)]
        doc = {"kind": "inscribed", "radius": "1", "params": params,
               "lines": [{"second_param": "1/3"}] * 255, "s": 127, "t": 1}
        bits = 1 + 2 * (10 ** 289).bit_length()
        assert 255 * (bits + 120) ** 2 <= MAX_WORK < _work(255, 1, bits, bits)
        with pytest.raises(InvariantViolation) as exc:
            parse_config(dumps(doc))
        assert str(exc.value).startswith(
            f"config needs {_work(255, 1, bits, bits)} units of work "
            f"(255 factors with {bits}-bit operands)")

    def test_through_points_count_twice_in_products(self, monkeypatch):
        """A through-point's parts enter the chord products at a common
        denominator, twice their bits: the smallest such part that puts
        a 63-gon over budget would pass if counted once."""
        _reject_kernel(monkeypatch)
        circle_bits = 1 + 2 * 6  # radius 1, parameters 0 .. 62
        through = next(b for b in range(1, 4000)
                       if _work(63, 1, max(circle_bits, b), circle_bits + 2 * b)
                       > MAX_WORK)
        assert _work(63, 1, through, circle_bits + through) <= MAX_WORK
        doc = {"kind": "inscribed", "radius": "1",
               "params": [str(k) for k in range(63)],
               "lines": [{"through": [f"1/{2 ** (through - 1)}", "1/3"]}] * 63,
               "s": 31, "t": 1}
        with pytest.raises(InvariantViolation, match="units of work"):
            parse_config(dumps(doc))
        doc["lines"] = [{"through": [f"1/{2 ** (through - 2)}", "1/3"]}] * 63
        monkeypatch.setattr(polyceva.configio, "InscribedConfig",
                            lambda *args: "built")
        assert parse_config(dumps(doc)) == "built"


class TestListLimit:
    """Each vertex list is held to ceva.MAX_VERTICES before any of its
    entries is parsed, so the cost of rejecting a long document does not
    grow with the work its entries would take."""

    @staticmethod
    def doc(field: str, entries: list) -> str:
        if field == "vertices":
            return dumps({**TRIANGLE_DOC, "vertices": entries})
        doc = {"kind": "inscribed", "radius": "2",
               "params": ["0", "1", "2"],
               "lines": [{"second_param": "5"}] * 3, "s": 1, "t": 1}
        return dumps({**doc, field: entries})

    @pytest.mark.parametrize("field, malformed", [
        ("vertices", "not a point"), ("params", 1.5), ("lines", {})])
    def test_limit_before_malformed_entries(self, field, malformed):
        with pytest.raises(InvariantViolation) as exc:
            parse_config(self.doc(field, [malformed] * (MAX_VERTICES + 1)))
        assert str(exc.value) == (f"{field}: a polygon has at most 256 "
                                  f"vertices, got 257 entries")

    @pytest.mark.parametrize("field, entry", [
        ("vertices", ["7/9", "7/9"]), ("params", "7/9"),
        ("lines", {"second_param": "7/9"})])
    def test_long_list_rejected_unparsed(self, monkeypatch, field, entry):
        parsed = []
        monkeypatch.setattr(polyceva.configio, "parse_parts",
                            lambda text: parsed.append(text) or (2, 1))
        with pytest.raises(InvariantViolation, match="at most 256 vertices"):
            parse_config(self.doc(field, [entry] * 100_000))
        # Fields before the long list are parsed, none of its entries.
        assert "7/9" not in parsed
        assert len(parsed) <= 4

    def test_limit_admits_max_vertices(self):
        with pytest.raises(InvariantViolation, match="2s \\+ t = n violated"):
            parse_config(self.doc("vertices", [[str(k), str(k * k)] for k in
                                               range(MAX_VERTICES)]))


class TestByteLimit:
    """A document longer than MAX_BYTES is rejected before json.loads,
    so its cost does not grow with its length."""

    def test_cap_covers_the_largest_admitted_doc_twice(self):
        part = "-" + "9" * 1000 + "/" + "9" * 1000
        doc = {"kind": "inscribed", "radius": part[1:],
               "params": [part] * MAX_VERTICES,
               "lines": [{"through": [part, part]}] * MAX_VERTICES,
               "s": 127, "t": 2}
        assert 2 * len(dumps(doc)) <= MAX_BYTES

    @pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
    def test_long_doc_never_decoded(self, monkeypatch, encode):
        class NoJson:
            @staticmethod
            def loads(*args, **kwargs):
                raise AssertionError("json.loads ran")
        monkeypatch.setattr(polyceva.configio, "json", NoJson)
        doc = dumps(TRIANGLE_DOC) + " " * (MAX_BYTES - len(dumps(TRIANGLE_DOC)) + 1)
        with pytest.raises(InvariantViolation) as exc:
            parse_config(doc.encode() if encode else doc)
        assert str(exc.value) == f"config is longer than {MAX_BYTES} bytes"

    @pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
    def test_doc_at_the_cap_is_parsed(self, encode):
        doc = dumps(TRIANGLE_DOC) + " " * (MAX_BYTES - len(dumps(TRIANGLE_DOC)))
        assert len(doc) == MAX_BYTES
        cfg = parse_config(doc.encode() if encode else doc)
        assert cfg == parse_config(dumps(TRIANGLE_DOC))


def report_text(doc) -> str:
    return json.dumps(doc, indent=2, cls=ReportEncoder)


# Strings with quotes, backslashes, control characters and non-ASCII
# (also outside the BMP) next to plain ones.
_TEXT = st.text(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\u00e9\u2028\U0001f600a ')
                | st.characters(), max_size=12)
# Factor rows: any labels, parts of up to 1000 digits, negative
# numerators and whole values among them.
_PARTS = st.integers(1, 10**1000 - 1)
_FACTORS = st.builds(
    lambda i, j, num, den: Factor(i, j, Fraction(num, den)),
    st.integers(), st.integers(), _PARTS | _PARTS.map(int.__neg__),
    st.just(1) | _PARTS)
_SCALARS = (st.none() | st.booleans() | _TEXT
            | st.integers() | st.integers(-10**1000, 10**1000)
            | st.floats(allow_nan=False, allow_infinity=False) | _FACTORS)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


def json_text(doc) -> str:
    """json's own indent=2 text of a report, with factor_entry's rows."""
    return json.dumps(doc, indent=2, default=factor_entry)


class TestReportEncoder:
    """The one-pass writer against json's own indent=2 encoder."""

    @settings(max_examples=300, deadline=None)
    @given(doc=_DOCS)
    @example(doc={"big": [10**999, -(10**999)], "empty": [[], (), {}],
                  "nested": {"a": [{"b": ()}]}})
    @example(doc=[])
    @example(doc="\"\\\x01\u00e9")
    @example(doc={"factors": (Factor(1, 2, Fraction(-3, 7)),
                              Factor(-4, 0, Fraction(-10**999))),
                  "row": [Factor(5, 5, Fraction(10**999, 10**999 + 1))]})
    def test_matches_json(self, doc):
        assert report_text(doc) == json_text(doc)

    @settings(max_examples=100, deadline=None)
    @given(factor=_FACTORS)
    def test_factor_entry_spells_the_value(self, factor):
        assert factor_entry(factor) == {"i": factor.i, "j": factor.j,
                                        "value": str(factor.value)}

    @settings(max_examples=100, deadline=None)
    @given(doc=_DOCS)
    def test_dump_writes_the_same_text(self, doc):
        """json.dump takes json's iterencode path, which reads rows
        through ReportEncoder.default."""
        out = io.StringIO()
        json.dump(doc, out, indent=2, cls=ReportEncoder)
        assert out.getvalue() == report_text(doc)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-string limit on this interpreter")
    def test_factor_rows_at_the_lowest_limit(self):
        """A report whose factor texts pass 640 digits writes the same
        text under Python's lowest int-string limit."""
        cfg = parse_config(
            (GOLDEN / "inputs" / "pentagon_300_digits.json").read_bytes())
        doc = ceva_run_report(cfg, ceva_product(cfg))
        want = (GOLDEN / "pentagon_300_digits.verify.out").read_text()[:-1]
        assert max(len(factor_entry(f)["value"]) for f in doc["factors"]) > 640
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            out = io.StringIO()
            json.dump(doc, out, indent=2, cls=ReportEncoder)
            assert report_text(doc) == out.getvalue() == want
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("name", sorted(
        name for name, argv in CASES.items()
        if argv[0] in ("verify", "counterexample", "fuzz")))
    def test_matches_json_on_golden_reports(self, name):
        code, out, _ = golden_expected(name)
        if not out:
            # A rejected input prints no report.
            assert code in (2, 3)
            return
        doc = json.loads(out)
        assert report_text(doc) == json.dumps(doc, indent=2) == out[:-1]

    @pytest.mark.parametrize("doc", [
        Fraction(1, 2), {"value": Fraction(1, 2)}, [1, {"a": [Point(0, 0)]}],
        {1, 2}, b"bytes"], ids=["top", "in-dict", "nested", "set", "bytes"])
    def test_other_types_raise_type_error(self, doc):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            report_text(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise(self, value):
        with pytest.raises(ValueError, match="Out of range float values"):
            report_text({"x": [value]})
