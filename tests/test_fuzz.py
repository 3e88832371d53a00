"""Harness tests: deterministic generation, rejection accounting, and
batch verification reports."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import polyceva.circle
import polyceva.fuzz
from polyceva.ceva import MAX_VERTICES, CevaConfig, ProductReport
from polyceva.circle import InscribedConfig
from polyceva.errors import GenerationExhausted
from polyceva.fuzz import (
    MAX_BOUND,
    FuzzReport,
    GenParams,
    _ascending,
    fuzz_ceva,
    fuzz_inscribed,
    gen_ceva_config,
    gen_inscribed_config,
)
from polyceva.geometry import Point


class TestGenParams:
    def test_defaults_valid(self):
        params = GenParams()
        assert params.n_min == 3

    @pytest.mark.parametrize("kwargs", [
        {"n_min": 2},
        {"n_min": 6, "n_max": 4},
        {"coordinate_bound": 1},
        {"n_max": MAX_VERTICES + 1},
        {"coordinate_bound": MAX_BOUND + 1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            GenParams(**kwargs)

    def test_vertex_limit_accepted(self):
        assert GenParams(n_max=MAX_VERTICES).n_max == 256

    def test_bound_limit_accepted(self):
        """Parts drawn at the largest bound still parse: they have at
        most MAX_DIGITS (1000) digits."""
        assert MAX_BOUND == 10 ** 1000 - 1
        assert GenParams(coordinate_bound=MAX_BOUND).coordinate_bound == MAX_BOUND


class TestGenCeva:
    def test_deterministic(self):
        params = GenParams(seed=5)
        assert gen_ceva_config(params, 3) == gen_ceva_config(params, 3)

    def test_different_trials_differ(self):
        params = GenParams(seed=5)
        assert gen_ceva_config(params, 0) != gen_ceva_config(params, 1)

    def test_triangle_split(self):
        params = GenParams(seed=5, n_min=3, n_max=3)
        for trial in range(5):
            cfg = gen_ceva_config(params, trial)
            assert (cfg.s, cfg.t) == (1, 1)

    def test_quadrilateral_split(self):
        params = GenParams(seed=5, n_min=4, n_max=4)
        for trial in range(5):
            cfg = gen_ceva_config(params, trial)
            assert (cfg.s, cfg.t) == (1, 2)

    def test_n_in_bounds(self):
        params = GenParams(seed=9, n_min=4, n_max=6)
        sizes = {gen_ceva_config(params, trial).n for trial in range(25)}
        assert sizes <= {4, 5, 6}
        assert len(sizes) > 1

    def test_emitted_config_revalidates(self):
        params = GenParams(seed=13)
        for trial in range(10):
            cfg = gen_ceva_config(params, trial)
            rebuilt = CevaConfig(cfg.vertices, cfg.pivot, cfg.s, cfg.t)
            assert rebuilt == cfg

    def test_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(polyceva.fuzz, "MAX_REJECTIONS", 1)
        params = GenParams(seed=1, n_min=7, n_max=7, coordinate_bound=2)
        with pytest.raises(GenerationExhausted):
            for trial in range(200):
                gen_ceva_config(params, trial)


class TestGenInscribed:
    def test_deterministic(self):
        params = GenParams(seed=5)
        assert gen_inscribed_config(params, 2) == gen_inscribed_config(params, 2)

    def test_params_strictly_increasing(self):
        params = GenParams(seed=17)
        for trial in range(10):
            cfg = gen_inscribed_config(params, trial)
            assert all(a < b for a, b in zip(cfg.params, cfg.params[1:]))

    def test_second_params_avoid_vertices(self):
        params = GenParams(seed=17)
        for trial in range(10):
            cfg = gen_inscribed_config(params, trial)
            for spec in cfg.line_specs:
                assert isinstance(spec, Fraction)
                assert spec not in cfg.params

    def test_concurrent_specs_share_point(self):
        params = GenParams(seed=19)
        for trial in range(5):
            cfg = gen_inscribed_config(params, trial, concurrent=True)
            assert len(set(cfg.line_specs)) == 1
            assert all(isinstance(spec, Point) for spec in cfg.line_specs)

    def test_triangle_split(self):
        params = GenParams(seed=19, n_min=3, n_max=3)
        cfg = gen_inscribed_config(params, 0)
        assert (cfg.s, cfg.t) == (1, 1)

    def test_emitted_config_revalidates(self):
        params = GenParams(seed=23)
        for trial in range(5):
            cfg = gen_inscribed_config(params, trial)
            rebuilt = InscribedConfig(cfg.radius, cfg.params, cfg.line_specs,
                                      cfg.s, cfg.t)
            assert rebuilt == cfg

    @given(st.sets(st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.builds(Fraction, st.integers(-10 ** 1000 + 1, 10 ** 1000 - 1),
                  st.integers(1, 10 ** 1000 - 1))), max_size=12))
    def test_integer_key_orders_as_fractions(self, values):
        """The draw orders its reduced pairs by an integer key exactly as
        sorted() orders their Fractions: negative, zero and 1000-digit
        parts included."""
        pairs = {(u.numerator, u.denominator) for u in values}
        assert _ascending(pairs) == [(u.numerator, u.denominator)
                                     for u in sorted(values)]


def _comparable(report: FuzzReport) -> dict:
    doc = report.to_dict()
    doc.pop("elapsed_seconds")
    return doc


class TestFuzzCeva:
    def test_batch_passes(self):
        report = fuzz_ceva(GenParams(seed=7), 50)
        assert report.failures == []
        assert report.trials_completed == 50
        assert report.trials_requested == 50

    def test_zero_trials(self):
        report = fuzz_ceva(GenParams(seed=7), 0)
        assert report.trials_completed == 0
        assert report.failures == []

    def test_deterministic_reports(self):
        params = GenParams(seed=11, n_min=3, n_max=6)
        assert _comparable(fuzz_ceva(params, 25)) == \
            _comparable(fuzz_ceva(params, 25))

    def test_tight_budget_counts_rejections_without_failures(self, monkeypatch):
        monkeypatch.setattr(polyceva.fuzz, "MAX_REJECTIONS", 1)
        params = GenParams(seed=3, n_min=6, n_max=7, coordinate_bound=2)
        report = fuzz_ceva(params, 40)
        assert report.rejections > 0
        assert report.failures == []
        assert report.trials_completed < report.trials_requested


class TestFuzzInscribed:
    def test_batch_passes(self):
        report = fuzz_inscribed(GenParams(seed=7, n_max=6), 25)
        assert report.failures == []
        assert report.trials_completed == 25

    def test_concurrent_batch_passes(self):
        report = fuzz_inscribed(GenParams(seed=7, n_max=6), 15, concurrent=True)
        assert report.failures == []
        assert report.kind == "concurrent"

    def test_deterministic_reports(self):
        params = GenParams(seed=29, n_max=5)
        assert _comparable(fuzz_inscribed(params, 10)) == \
            _comparable(fuzz_inscribed(params, 10))

    @pytest.mark.parametrize("concurrent, called", [
        (True, "concurrent_secants_check"),
        (False, "inscribed_identity_report"),
    ])
    def test_config_selects_the_check(self, monkeypatch, concurrent, called):
        """Each trial's config, not the batch's flag, picks the engine
        check: a drawn common point selects the concurrent one."""
        calls = dict.fromkeys(("concurrent_secants_check",
                               "inscribed_identity_report"), 0)
        for name in calls:
            def counted(cfg, name=name, check=getattr(polyceva.fuzz, name)):
                calls[name] += 1
                return check(cfg)
            monkeypatch.setattr(polyceva.fuzz, name, counted)
        report = fuzz_inscribed(GenParams(seed=7, n_max=6), 5,
                                concurrent=concurrent)
        assert report.failures == []
        assert calls == {name: 5 * (name == called) for name in calls}


# One small trial of each kind, with the engines falsified through names
# every call path reaches, pins what a failure records: the check names,
# their expected and actual strings, and their order.
FALSIFIED = GenParams(seed=7, n_min=3, n_max=4, coordinate_bound=3)

CEVA_DOC = {"kind": "ceva",
            "vertices": [["-1/3", "2/3"], ["-1/3", "1"], ["-1/3", "-3"]],
            "M": ["0", "0"], "s": 1, "t": 1}
INSCRIBED_DOC = {"kind": "inscribed", "radius": "2/3",
                 "params": ["-1/3", "2/3", "1"],
                 "lines": [{"second_param": "-3"}, {"second_param": "0"},
                           {"second_param": "0"}],
                 "s": 1, "t": 1}
CONCURRENT_DOC = {"kind": "inscribed", "radius": "2/3",
                  "params": ["-1/3", "2/3", "1"],
                  "lines": [{"through": ["-1/3", "-3"]}] * 3,
                  "s": 1, "t": 1}


def _records(kind: str, doc: dict, *checks: tuple[str, str, str]) -> dict:
    return {"kind": kind, "trials_requested": 1, "trials_completed": 1,
            "rejections": 0,
            "failures": [{"trial": 0, "seed": 7, "check": check,
                          "expected": expected, "actual": actual,
                          "config": doc}
                         for check, expected, actual in checks]}


class TestFailureRecords:
    @pytest.fixture
    def falsified(self, monkeypatch):
        chords = polyceva.circle.inscribed_chord_product_squared
        monkeypatch.setattr(
            polyceva.fuzz, "ceva_product",
            lambda cfg: ProductReport(cfg.factors[1:], Fraction(-1) ** cfg.n))
        monkeypatch.setattr(polyceva.circle, "inscribed_chord_product_squared",
                            lambda cfg: 4 * chords(cfg))
        monkeypatch.setattr(polyceva.fuzz, "chord_telescoping_squared",
                            lambda cfg: Fraction(cfg.n))
        monkeypatch.setattr(polyceva.fuzz, "similar_triangles_relation",
                            lambda cfg, i: i != 2)

    def test_ceva(self, falsified):
        assert _comparable(fuzz_ceva(FALSIFIED, 1)) == _records(
            "ceva", CEVA_DOC, ("signed_product", "-1", "11"))

    def test_inscribed(self, falsified):
        assert _comparable(fuzz_inscribed(FALSIFIED, 1)) == _records(
            "inscribed", INSCRIBED_DOC,
            ("squared_identity", "121/16", "121/64"),
            ("chord_telescoping", "1", "3"),
            ("similar_triangles[2]", "equal", "unequal"))

    def test_concurrent(self, falsified):
        assert _comparable(fuzz_inscribed(FALSIFIED, 1, concurrent=True)) == \
            _records("concurrent", CONCURRENT_DOC,
                     ("squared_identity", "4", "1"),
                     ("chord_telescoping", "1", "3"),
                     ("similar_triangles[2]", "equal", "unequal"),
                     ("concurrent_sign", "-1 and 1", "-1 and 4"))

    def test_concurrent_sign_alone(self, monkeypatch):
        """A wrong sign with both squared facts intact is one record, and
        fails the report's verdict."""
        product = polyceva.circle.factor_product

        def negated(factors):
            num, den = product(factors)
            return -num, den

        monkeypatch.setattr(polyceva.circle, "factor_product", negated)
        assert _comparable(fuzz_inscribed(FALSIFIED, 1, concurrent=True)) == \
            _records("concurrent", CONCURRENT_DOC,
                     ("concurrent_sign", "-1 and 1", "1 and 1"))
        report = polyceva.fuzz.concurrent_secants_check(
            gen_inscribed_config(FALSIFIED, 0, concurrent=True))
        assert report.lhs_squared == report.rhs_squared == 1
        assert report.lhs == 1 and report.holds is False
