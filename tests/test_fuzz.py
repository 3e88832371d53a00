"""Harness tests: deterministic generation, rejection accounting, and
batch verification reports."""

import pytest

from polyceva.ceva import MAX_VERTICES, CevaConfig
from polyceva.circle import InscribedConfig, SecondParam, ThroughPoint
from polyceva.errors import GenerationExhausted
from polyceva.fuzz import (
    MAX_BOUND,
    FuzzReport,
    GenParams,
    fuzz_ceva,
    fuzz_inscribed,
    gen_ceva_config,
    gen_inscribed_config,
)


class TestGenParams:
    def test_defaults_valid(self):
        params = GenParams()
        assert params.n_min == 3

    @pytest.mark.parametrize("kwargs", [
        {"n_min": 2},
        {"n_min": 6, "n_max": 4},
        {"coordinate_bound": 1},
        {"max_rejections": 0},
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

    def test_exhaustion_raises(self):
        params = GenParams(seed=1, n_min=7, n_max=7, coordinate_bound=2,
                           max_rejections=1)
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
                assert isinstance(spec, SecondParam)
                assert spec.v not in cfg.params

    def test_concurrent_specs_share_point(self):
        params = GenParams(seed=19)
        for trial in range(5):
            cfg = gen_inscribed_config(params, trial, concurrent=True)
            points = {spec.point for spec in cfg.line_specs}
            assert len(points) == 1
            assert all(isinstance(spec, ThroughPoint) for spec in cfg.line_specs)

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

    def test_tight_budget_counts_rejections_without_failures(self):
        params = GenParams(seed=3, n_min=6, n_max=7, coordinate_bound=2,
                           max_rejections=1)
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
