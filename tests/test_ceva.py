"""Engine tests for the polygon product identity and its specializations."""

import contextlib
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from polyceva.errors import DegenerateConfig, InvariantViolation
from polyceva.ceva import (
    MAX_VERTICES,
    CevaConfig,
    Factor,
    ProductReport,
    all_sides_product,
    build_converse_counterexample,
    ceva_product,
    classic_ceva_product,
    crossing_point,
    factor_product,
    opposite_vertex_product,
    sides_hit,
    validate_split,
)
from polyceva.geometry import (
    Point,
    are_concurrent,
    intersect_lines,
    line_through,
    point_from_ratio,
)
from polyceva.circle import inscribed_identity_report
from polyceva.configio import ReportEncoder, ceva_run_report, parse_config
from polyceva.fuzz import (
    GenParams,
    _build_inscribed,
    _draw,
    _inscribed_checks,
    gen_ceva_config,
    gen_inscribed_config,
)
from polyceva.svgout import render_ceva_svg

from _exact_oracle import (
    AffineMap,
    AxisAligned,
    DivisionByZero,
    affine_apply,
    crossing,
    directed_ratio,
    line_value_antisymmetry,
    normalized_line_value,
)
from _float_oracle import float_ceva_product


ROOT = Path(__file__).resolve().parent.parent


def pt(x, y) -> Point:
    return Point(F(x), F(y))


@contextlib.contextmanager
def _fractions_built():
    """Count the Fractions constructed inside the block: yields a list
    whose one item is the count so far."""
    code = F.__new__.__code__
    built = [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built[0] += 1

    sys.setprofile(count)
    try:
        yield built
    finally:
        sys.setprofile(None)


TRIANGLE = (pt(0, 0), pt(4, 0), pt(0, 4))
CENTROID = Point(F(4, 3), F(4, 3))
SQUARE = (pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4))
PENTAGON = (pt(0, 0), pt(4, 0), pt(5, 3), pt(2, 5), pt(-1, 3))


class TestSidesHit:
    def test_thirteen_gon_first_vertex(self):
        assert sides_hit(1, 5, 3, 13) == [6, 7, 8]

    def test_thirteen_gon_second_vertex(self):
        assert sides_hit(2, 5, 3, 13) == [7, 8, 9]

    def test_triangle_opposite_side(self):
        assert sides_hit(1, 1, 1, 3) == [2]

    def test_split_must_match(self):
        with pytest.raises(ValueError):
            sides_hit(1, 2, 2, 5)

    @pytest.mark.parametrize("i", [0, 4])
    def test_index_out_of_range(self, i):
        with pytest.raises(ValueError, match=f"^index {i} out of range 1..3$"):
            sides_hit(i, 1, 1, 3)

    def test_every_side_hit_t_times(self):
        n, s, t = 9, 2, 5
        hits = [j for i in range(1, n + 1) for j in sides_hit(i, s, t, n)]
        assert all(hits.count(j) == t for j in range(1, n + 1))


def meet(cfg: CevaConfig, i: int, j: int) -> Point:
    """The crossing M_ij of the cevian at A_i with side-line A_j A_{j+1}."""
    factor, = (f for f in cfg.factors if (f.i, f.j) == (i, j))
    return crossing_point(cfg.vertices, factor)


class TestCevianIntersection:
    def test_median_foot_is_midpoint(self):
        cfg = CevaConfig(TRIANGLE, CENTROID, 1, 1)
        assert meet(cfg, 1, 2) == pt(2, 2)

    def test_square_extended_side(self):
        # Cevian y = 2x from the origin meets the extended side x = 4 at (4, 8).
        cfg = CevaConfig(SQUARE, pt(1, 2), 1, 2)
        assert meet(cfg, 1, 2) == pt(4, 8)

    def test_pivot_on_side_line_degenerate(self):
        # Pivot on the side-line through A_3 and A_1 breaks general position.
        with pytest.raises(DegenerateConfig):
            CevaConfig(TRIANGLE, pt(0, 2), 1, 1)

    def test_cevian_coincides_with_side(self):
        # A_1 and the pivot both sit on side-line A_2A_3 (y = x), so the
        # first cevian is that side-line itself.
        pent = (pt(0, 0), pt(1, 1), pt(3, 3), pt(5, 0), pt(-1, 2))
        with pytest.raises(DegenerateConfig) as err:
            CevaConfig(pent, pt(2, 2), 1, 3)
        assert err.value.reason == DegenerateConfig.PARALLEL

    def test_parallel_cevian_degenerate(self):
        # Cevian from A_1 through (1,3) is parallel to side A_2A_3.
        quad = (pt(0, 0), pt(4, 0), pt(5, 3), pt(-1, 3))
        with pytest.raises(DegenerateConfig) as err:
            CevaConfig(quad, pt(1, 3), 1, 2)
        assert err.value.reason == DegenerateConfig.PARALLEL


def fraction_product(factors) -> F:
    """The verdicts' former formula, kept as their oracle."""
    return math.prod((f.value for f in factors), start=F(1))


values = st.fractions(min_value=-40, max_value=40, max_denominator=60)
# Few vertex numbers, so runs repeat an i after another one.
factor_lists = st.lists(st.builds(Factor, st.integers(1, 4),
                                  st.integers(1, 9), values), max_size=14)


class TestFactorProduct:
    @given(factor_lists, values, st.booleans())
    @example([], F(1), False)
    @example([], F(2), False)
    @example([Factor(1, 3, F(2, 3)), Factor(2, 4, F(-5, 7)),
              Factor(3, 5, F(9, 4))], F(-1), True)
    @example([Factor(1, 2, F(4, 9)), Factor(1, 3, F(9, 2)),
              Factor(2, 3, F(-1, 5)), Factor(1, 4, F(10, 3))], F(-1), False)
    def test_matches_fraction_product(self, factors, other, pin):
        exact = fraction_product(factors)
        expected = exact if pin else other
        report = ProductReport.from_factors(factors, expected)
        assert report.holds == (exact == expected)
        assert type(report.product) is F and report.product == exact
        assert report.factors == tuple(factors)
        num, den = factor_product(factors)
        assert den > 0 and F(num, den) == exact

    @given(st.lists(values, max_size=10))
    def test_one_vertex_run_is_reduced(self, run):
        num, den = factor_product([Factor(2, 1, v) for v in run])
        assert math.gcd(num, den) == 1

    def test_seeded_verdicts(self):
        for trial in range(40):
            cfg = gen_ceva_config(GenParams(seed=61, n_min=3, n_max=9), trial)
            report = ceva_product(cfg)
            assert report.holds and report.product == fraction_product(cfg.factors)
            inscribed = gen_inscribed_config(GenParams(seed=61, n_min=3, n_max=7),
                                             trial)
            assert (inscribed_identity_report(inscribed).lhs
                    == fraction_product(inscribed.factors))


def _seeded_factors(kind: str, configs: int = 200):
    """Every factor of the first ``configs`` seeded configs of a kind."""
    params = GenParams(seed=1717, n_min=3, n_max=9)
    for trial in range(configs):
        if kind == "ceva":
            cfg = gen_ceva_config(params, trial)
        else:
            cfg = gen_inscribed_config(params, trial,
                                       concurrent=kind == "concurrent")
        yield from cfg.factors


KINDS = ["ceva", "inscribed", "concurrent"]


class TestFactorPair:
    """A Factor holds its value as the canonical integer pair num/den."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_kernel_pairs_are_canonical(self, kind):
        for f in _seeded_factors(kind):
            assert math.gcd(f.num, f.den) == 1 and f.den > 0
            assert F(f.num, f.den) == f.value
            assert (f.value.numerator, f.value.denominator) == (f.num, f.den)

    @pytest.mark.parametrize("kind", KINDS)
    def test_kernel_and_constructor_agree(self, kind):
        for f in _seeded_factors(kind):
            built = Factor(f.i, f.j, f.value)
            assert built == f and hash(built) == hash(f)
            assert (built.num, built.den) == (f.num, f.den)
            assert repr(built) == repr(f)

    def test_no_fraction_per_factor(self):
        """Building, multiplying, reporting and drawing a ceva config's
        195 factors makes no Fraction per factor."""
        vertices = tuple(pt(k, k * k) for k in range(15))
        pivot = Point(F(22, 3), F(561, 7))
        with _fractions_built() as built:
            cfg = CevaConfig(vertices, pivot, 1, 13)
            report = ceva_product(cfg)
            doc = ceva_run_report(cfg, report)
            text = json.dumps(doc, indent=2, cls=ReportEncoder)
            figure = render_ceva_svg(cfg)
        assert len(doc["factors"]) == 195 and report.holds
        assert text.count('"value"') == figure.count('fill="#c62828"') == 195
        assert built[0] < 10

    def test_no_fraction_per_point(self):
        """Parsing a ceva doc and drawing one fuzz-ceva trial build as many
        Fractions for a 45-gon as for a pentagon: none per coordinate."""
        def counts(n: int) -> tuple[int, int]:
            # An affine image of the parabola points (k, k^2) and a pivot
            # off every side-line and vertex line.
            doc = json.dumps({"kind": "ceva", "M": ["22/9", "187/7"],
                              "vertices": [[f"{k}/3", f"{k * k}/9"]
                                           for k in range(n)],
                              "s": 1, "t": n - 2})
            params = GenParams(seed=3, n_min=n, n_max=n,
                               coordinate_bound=10 ** 6)
            with _fractions_built() as parsing:
                parsed = parse_config(doc)
            with _fractions_built() as drawing:
                drawn = gen_ceva_config(params, 0)
            assert parsed.n == drawn.n == n
            return parsing[0], drawing[0]

        assert counts(5) == counts(45)


class TestInscribedPairs:
    """The inscribed path holds its rationals as integer pairs: parsing,
    drawing and checking build no Fraction per parameter."""

    def test_no_fraction_per_parameter(self):
        """Parsing an inscribed doc builds as many Fractions for a 45-gon
        as for a pentagon."""
        def count(n: int) -> int:
            doc = json.dumps({
                "kind": "inscribed", "radius": "3/2",
                "params": [f"{2 * k - n}/3" for k in range(n)],
                "lines": [{"second_param": f"{2 * k - n + 1}/5"}
                          for k in range(n - 1)] + [{"through": ["1/7", "2/9"]}],
                "s": (n - 1) // 2, "t": 1})
            with _fractions_built() as parsing:
                cfg = parse_config(doc)
            assert cfg.n == n
            return parsing[0]

        assert count(5) == count(45)

    @pytest.mark.parametrize("concurrent, checking", [(False, 1), (True, 0)])
    def test_passing_trial(self, concurrent, checking):
        """Drawing a passing fuzz trial builds no Fraction.  Checking it
        builds none for a concurrent config; for any other, the one
        Fraction is the value of inscribed_chord_product_squared, the
        public function the report takes its right side from."""
        params = GenParams(seed=1)
        for trial in range(3):
            with _fractions_built() as drawing:
                cfg, rejected = _draw(_build_inscribed, params, trial, concurrent)
            with _fractions_built() as checked:
                failures = list(_inscribed_checks(cfg))
            assert (rejected, failures) == (0, [])
            assert (cfg.common_point is not None) == concurrent
            assert (drawing[0], checked[0]) == (0, checking)


class TestCevaProduct:
    def test_centroid_medians(self):
        report = ceva_product(CevaConfig(TRIANGLE, CENTROID, 1, 1))
        assert [f.value for f in report.factors] == [-1, -1, -1]
        assert report.product == -1
        assert report.holds

    def test_square_factor_table(self):
        report = ceva_product(CevaConfig(SQUARE, pt(1, 2), 1, 2))
        values = {(f.i, f.j): f.value for f in report.factors}
        # Hand-solved crossings of each cevian with the two far side-lines.
        assert values == {
            (1, 2): F(2), (1, 3): F(-1),
            (2, 3): F(3), (2, 4): F(-1, 2),
            (3, 4): F(-2), (3, 1): F(1, 3),
            (4, 1): F(-1), (4, 2): F(1, 2),
        }
        assert report.product == 1
        assert report.expected == 1
        assert report.holds

    def test_random_pentagons_opposite_vertex(self):
        params = GenParams(seed=11, n_min=5, n_max=5)
        for trial in range(25):
            cfg = gen_ceva_config(params, trial)
            if cfg.s != 2:
                continue
            assert ceva_product(cfg).product == -1

    def test_product_is_factor_product(self):
        report = ceva_product(CevaConfig(SQUARE, pt(1, 2), 1, 2))
        assert report.product == math.prod(f.value for f in report.factors)


class TestClassicCeva:
    def test_centroid(self):
        assert classic_ceva_product(TRIANGLE, CENTROID).product == -1

    def test_interior_pivot(self):
        assert classic_ceva_product(TRIANGLE, pt(1, 1)).product == -1

    def test_external_pivot(self):
        # Hand-solved feet for pivot (5,5): (2,2) on side 2, (0,-20) on
        # side 3, (-20,0) on side 1, with ratios -1, 6/5, 5/6.
        report = classic_ceva_product(TRIANGLE, pt(5, 5))
        cfg = CevaConfig(TRIANGLE, pt(5, 5), 1, 1)
        assert meet(cfg, 1, 2) == pt(2, 2)
        assert meet(cfg, 2, 3) == pt(0, -20)
        assert meet(cfg, 3, 1) == pt(-20, 0)
        assert {f.value for f in report.factors} == {F(-1), F(6, 5), F(5, 6)}
        assert report.product == -1

    def test_wrong_size(self):
        with pytest.raises(InvariantViolation):
            classic_ceva_product(SQUARE, pt(1, 2))


class TestOppositeVertexProduct:
    def test_pentagon(self):
        report = opposite_vertex_product(PENTAGON, pt(2, 2))
        assert report.product == -1
        assert report.holds

    def test_factors_listed_by_side(self):
        report = opposite_vertex_product(PENTAGON, pt(2, 2))
        assert [f.j for f in report.factors] == [1, 2, 3, 4, 5]
        # Side j is cut by the cevian from the opposite vertex j - 2.
        assert [f.i for f in report.factors] == [4, 5, 1, 2, 3]
        for f in report.factors:
            cfg = CevaConfig(PENTAGON, pt(2, 2), 2, 1)
            m = meet(cfg, f.i, f.j)
            a_j, a_next = cfg.vertices[f.j - 1], cfg.vertices[f.j % cfg.n]
            assert directed_ratio(m, a_j, a_next) == f.value

    def test_triangle_reduces_to_classic(self):
        report = opposite_vertex_product(TRIANGLE, pt(1, 1))
        classic = classic_ceva_product(TRIANGLE, pt(1, 1))
        assert report.product == classic.product == -1

    def test_heptagon_float_cross_check(self):
        params = GenParams(seed=23, n_min=7, n_max=7)
        checked = 0
        for trial in range(40):
            cfg = gen_ceva_config(params, trial)
            if cfg.s != 3:
                continue
            report = opposite_vertex_product(cfg.vertices, cfg.pivot)
            assert report.product == -1
            if all(1e-3 < abs(f.value) < 1e3 for f in report.factors):
                approx = float_ceva_product(
                    [(float(v.x), float(v.y)) for v in cfg.vertices],
                    (float(cfg.pivot.x), float(cfg.pivot.y)), cfg.s, cfg.t)
                assert abs(approx - float(report.product)) < 1e-9
                checked += 1
        assert checked >= 5

    def test_even_polygon_rejected(self):
        with pytest.raises(InvariantViolation):
            opposite_vertex_product(SQUARE, pt(1, 2))


class TestAllSidesProduct:
    def test_triangle_equals_classic(self):
        assert all_sides_product(TRIANGLE, pt(1, 1)).product == \
            classic_ceva_product(TRIANGLE, pt(1, 1)).product

    def test_square(self):
        assert all_sides_product(SQUARE, pt(1, 2)).product == 1

    def test_hexagon_float_cross_check(self):
        params = GenParams(seed=29, n_min=6, n_max=6)
        checked = 0
        for trial in range(40):
            cfg = gen_ceva_config(params, trial)
            if cfg.s != 1:
                continue
            report = all_sides_product(cfg.vertices, cfg.pivot)
            assert report.product == 1
            if all(1e-3 < abs(f.value) < 1e3 for f in report.factors):
                approx = float_ceva_product(
                    [(float(v.x), float(v.y)) for v in cfg.vertices],
                    (float(cfg.pivot.x), float(cfg.pivot.y)), 1, 4)
                assert abs(approx - float(report.product)) < 1e-9
                checked += 1
        assert checked >= 5


class TestConfigValidation:
    def test_split_checked(self):
        with pytest.raises(InvariantViolation):
            CevaConfig(TRIANGLE, pt(1, 1), 2, 1)

    def test_split_parts_positive(self):
        with pytest.raises(InvariantViolation,
                           match="^s and t must be positive, got s=0, t=3$"):
            CevaConfig(TRIANGLE, CENTROID, 0, 3)

    def test_duplicate_vertices(self):
        with pytest.raises(InvariantViolation,
                           match="vertices must be pairwise distinct"):
            CevaConfig((pt(0, 0), pt(4, 0), pt(0, 0)), pt(1, 1), 1, 1)

    def test_vertex_limit(self):
        validate_split(MAX_VERTICES, 1, MAX_VERTICES - 2)
        polygon = tuple(pt(k, k * k) for k in range(MAX_VERTICES + 1))
        with pytest.raises(InvariantViolation, match="at most 256 vertices"):
            CevaConfig(polygon, pt(F(1, 2), F(1, 3)), 128, 1)

    def test_pivot_on_vertex(self):
        with pytest.raises(InvariantViolation, match="pivot coincides with a vertex"):
            CevaConfig(TRIANGLE, pt(4, 0), 1, 1)

    def test_foot_on_vertex(self):
        # Pivot on the median-extension through A_2... chosen so the
        # cevian from A_1 meets side 2 exactly at vertex A_2.
        with pytest.raises(DegenerateConfig) as err:
            CevaConfig(TRIANGLE, pt(2, 0), 1, 1)
        assert err.value.reason == DegenerateConfig.HITS_VERTEX


class TestRelabelInvariance:
    def test_cyclic_shift_preserves_product(self):
        params = GenParams(seed=31, n_min=4, n_max=8)
        for trial in range(10):
            cfg = gen_ceva_config(params, trial)
            shifted = CevaConfig(cfg.vertices[1:] + cfg.vertices[:1],
                                 cfg.pivot, cfg.s, cfg.t)
            a = ceva_product(cfg)
            b = ceva_product(shifted)
            assert a.product == b.product
            assert sorted(f.value for f in a.factors) == \
                sorted(f.value for f in b.factors)


class TestAffineInvariance:
    def test_factors_unchanged(self):
        mapping = AffineMap(2, 1, -1, 3, F(1, 2), -5)
        params = GenParams(seed=37, n_min=3, n_max=7)
        for trial in range(10):
            cfg = gen_ceva_config(params, trial)
            moved = CevaConfig(
                tuple(affine_apply(mapping, v) for v in cfg.vertices),
                affine_apply(mapping, cfg.pivot), cfg.s, cfg.t)
            before = ceva_product(cfg)
            after = ceva_product(moved)
            assert [(f.i, f.j, f.value) for f in before.factors] == \
                [(f.i, f.j, f.value) for f in after.factors]
            assert before.product == after.product


class TestNormalizedLineValue:
    def test_zero_at_pivot(self):
        assert normalized_line_value(F(0), F(0), pt(1, 2), pt(0, 0)) == 0

    def test_zero_at_vertex(self):
        assert normalized_line_value(F(1), F(2), pt(1, 2), pt(0, 0)) == 0

    def test_hand_value(self):
        # (2 - 0)/(1 - 0) - (2 - 0)/(2 - 0) = 1.
        assert normalized_line_value(F(2), F(2), pt(1, 2), pt(0, 0)) == 1

    def test_axis_aligned(self):
        with pytest.raises(AxisAligned):
            normalized_line_value(F(1), F(1), pt(0, 5), pt(0, 0))


def _axes_clear(cfg) -> bool:
    return all(v.x != cfg.pivot.x and v.y != cfg.pivot.y for v in cfg.vertices)


class TestLineValueAntisymmetry:
    def test_random_configs(self):
        params = GenParams(seed=41, n_min=3, n_max=8)
        checked = 0
        for trial in range(60):
            cfg = gen_ceva_config(params, trial)
            if not _axes_clear(cfg):
                continue
            for r in range(1, cfg.n + 1):
                for q in range(1, cfg.n + 1):
                    if r == q:
                        continue
                    try:
                        assert line_value_antisymmetry(cfg, r, q)
                        checked += 1
                    except DivisionByZero:
                        pass
        assert checked > 100

    def test_axis_aligned_rejected(self):
        # A_2 = (4, 1) shares its y coordinate with the pivot.
        bad = CevaConfig((pt(0, 0), pt(4, 1), pt(1, 4)), pt(1, 1), 1, 1)
        with pytest.raises(AxisAligned):
            line_value_antisymmetry(bad, 1, 2)

    def test_equal_indices_rejected(self):
        cfg = CevaConfig(TRIANGLE, pt(1, 1), 1, 1)
        with pytest.raises(ValueError):
            line_value_antisymmetry(cfg, 2, 2)

    def test_division_by_zero(self):
        # A_2 = (4, 2) lies on the line joining A_1 = (0, 0) to the pivot.
        pent = (pt(0, 0), pt(4, 2), pt(6, 4), pt(1, 6), pt(-2, 2))
        cfg = CevaConfig(pent, pt(2, 1), 2, 1)
        with pytest.raises(DivisionByZero):
            line_value_antisymmetry(cfg, 1, 2)


class TestPerCevianTelescoping:
    def test_factor_run_telescopes(self):
        # For each vertex i the run of its t factors collapses to
        # D(i+s, i) / D(i+s+t, i) in the normalized line form.
        params = GenParams(seed=43, n_min=4, n_max=9)
        checked = 0
        for trial in range(30):
            cfg = gen_ceva_config(params, trial)
            if not _axes_clear(cfg):
                continue
            report = ceva_product(cfg)
            for i in range(1, cfg.n + 1):
                run = math.prod(f.value for f in report.factors if f.i == i)
                a_i = cfg.vertices[i - 1]
                top = cfg.vertices[(i - 1 + cfg.s) % cfg.n]
                bot = cfg.vertices[(i - 1 + cfg.s + cfg.t) % cfg.n]
                d_top = normalized_line_value(top.x, top.y, a_i, cfg.pivot)
                d_bot = normalized_line_value(bot.x, bot.y, a_i, cfg.pivot)
                assert run == d_top / d_bot
                checked += 1
        assert checked > 30


class TestCounterexample:
    def test_reference_pentagon(self):
        result = build_converse_counterexample(PENTAGON, pt(2, 2))
        assert result.K == F(-3, 2)
        assert result.branch == "1/K"
        assert result.product == -1
        assert result.concurrent is False
        assert result.holds
        assert not are_concurrent(result.cevians)
        assert result.ratios == (F(-2, 3), F(-1), F(-2, 3), F(-3, 2), F(-3, 2))

    def test_branch_ratio_match(self):
        result = build_converse_counterexample(PENTAGON, pt(2, 2))
        assert result.ratios[0] == 1 / result.K
        assert result.ratios[1] == -1

    def test_ratios_recomputable_from_meets(self):
        result = build_converse_counterexample(PENTAGON, pt(2, 2))
        for i in range(1, 6):
            a = result.vertices[i - 1]
            b = result.vertices[i % 5]
            assert directed_ratio(result.meet_points[i - 1], a, b) == \
                result.ratios[i - 1]

    def test_meet_points_are_line_intersections(self):
        """M_j on side-line A_j A_{j+1} is where that side-line meets the
        cevian of vertex j + 3, and M_3..M_5 are the oracle's crossings."""
        params = GenParams(seed=59, n_min=5, n_max=5)
        draws = [(PENTAGON, pt(2, 2))] + [
            (cfg.vertices, cfg.pivot)
            for cfg in (gen_ceva_config(params, trial) for trial in range(20))]
        built = 0
        for vertices, pivot in draws:
            try:
                result = build_converse_counterexample(vertices, pivot)
            except DegenerateConfig:
                continue
            for j in range(1, 6):
                side = line_through(vertices[j - 1], vertices[j % 5])
                assert result.meet_points[j - 1] == intersect_lines(
                    result.cevians[(j + 2) % 5], side)
            for i in (1, 2, 3):
                assert result.meet_points[i + 1] == crossing(
                    vertices, vertices[i - 1], pivot, i, i + 2)[1]
            built += 1
        assert built >= 15

    def test_forced_fallback_branch(self):
        # A_5 sits on the line joining the pivot to the midpoint of
        # A_2A_3, which makes the natural fifth foot land exactly at
        # ratio 1/K; the builder must take the 2/K branch.
        pent = (pt(0, 0), pt(4, 0), pt(5, 3), pt(2, 5), Point(F(-1), F(13, 5)))
        result = build_converse_counterexample(pent, pt(2, 2))
        assert result.branch == "2/K"
        assert result.K == -1
        assert result.ratios[0] == 2 / result.K == -2
        assert result.ratios[1] == F(-1, 2)
        assert result.product == -1
        assert result.concurrent is False

    # One fixed pentagon and pivot for each early exit of the builder.
    def test_k_one_skips_the_first_branch(self):
        # Ratio 1/K = 1 has no finite point, so M_1 takes ratio 2.
        pent = (pt(-5, -5), pt(3, -5), pt(3, -3), pt(-5, -1), pt(-4, 1))
        result = build_converse_counterexample(pent, pt(-4, -2))
        assert result.K == 1
        assert result.branch == "2/K"
        assert result.ratios[:2] == (2, F(-1, 2))
        assert result.holds

    def test_m1_on_vertex_4_skips_the_first_branch(self):
        # A_4 lies on line A_1A_2 at ratio 1/K, where A_4 M_1 is no line.
        pent = (pt(5, 3), pt(-3, -5), pt(-1, 3), pt(-1, -3), pt(-5, 1))
        result = build_converse_counterexample(pent, pt(4, -5))
        assert point_from_ratio(pent[0], pent[1], 1 / result.K) == pent[3]
        assert result.branch == "2/K"
        assert result.holds

    def test_both_branches_degenerate(self):
        pent = (pt(1, -1), pt(4, -3), pt(0, 2), pt(1, 3), pt(0, -2))
        with pytest.raises(DegenerateConfig,
                           match="both ratio branches degenerate"):
            build_converse_counterexample(pent, pt(4, -1))

    def test_two_cevians_coincide(self):
        pent = (pt(-5, -5), pt(-5, 5), pt(3, -5), pt(1, 5), pt(-2, 1))
        with pytest.raises(DegenerateConfig,
                           match="two cevians coincide") as info:
            build_converse_counterexample(pent, pt(-5, 3))
        assert info.value.reason == DegenerateConfig.PARALLEL

    def test_compensating_point_never_lands_on_vertex_5(self):
        """M_2 = A_5 needs A_5 on line A_2A_3 at the branch's ratio r2:
        -1 (1/K branch) or -1/2 (2/K branch).  With A_5 there, K =
        -[A_2 P A_4] / (r2 [A_1 P A_4]), [.] being signed area and P the
        pivot, so the branch's r1 = -1/(r2 K) = [A_1 P A_4] / [A_2 P A_4]
        puts M_1 where line A_4 P meets line A_1A_2.  That branch is
        always skipped, and the guard cannot fire."""
        quad = PENTAGON[:4]
        midpoint, third = Point(F(9, 2), F(3, 2)), Point(F(13, 3), F(1))
        for a_5, skipped, r1 in ((midpoint, "1/K", 1), (third, "2/K", 2)):
            for pivot in (pt(1, 3), pt(3, 1)):
                result = build_converse_counterexample((*quad, a_5), pivot)
                assert result.branch != skipped
                assert result.meet_points[1] != a_5
                m1 = point_from_ratio(quad[0], quad[1], r1 / result.K)
                assert line_through(quad[3], m1).contains(pivot)

    def test_degenerate_pentagon(self):
        # Pivot collinear with A_1 and A_3 puts the first foot on a vertex.
        degenerate = (pt(0, 0), pt(4, 0), pt(2, 2), pt(2, 5), pt(-1, 3))
        with pytest.raises(DegenerateConfig):
            build_converse_counterexample(degenerate, pt(1, 1))

    def test_structural_errors(self):
        with pytest.raises(InvariantViolation):
            build_converse_counterexample(PENTAGON[:4], pt(2, 2))
        with pytest.raises(InvariantViolation):
            build_converse_counterexample(PENTAGON, pt(4, 0))

    def test_random_pentagons(self):
        params = GenParams(seed=47, n_min=5, n_max=5)
        built = 0
        for trial in range(30):
            cfg = gen_ceva_config(params, trial)
            try:
                result = build_converse_counterexample(cfg.vertices, cfg.pivot)
            except DegenerateConfig:
                continue
            assert result.product == -1
            assert result.concurrent is False
            built += 1
        assert built >= 15

    def test_fractions_built_are_its_fields(self):
        """On the reference pentagon, the builder makes only the
        Fractions of its public fields: K, the branches' two ratio pairs,
        the three genuine ratios (once as fields, once for their meet
        points) and the product's two multiplications.  Its Point and
        Line work builds none."""
        with open(ROOT / "configs" / "pentagon_counterexample.json") as f:
            cfg = parse_config(f.read())
        with _fractions_built() as built:
            result = build_converse_counterexample(cfg.vertices, cfg.pivot)
        assert result.holds
        assert built[0] <= 13

    def test_line_functions_build_no_fraction(self):
        pivot = pt(2, 2)
        result = build_converse_counterexample(PENTAGON, pivot)
        with _fractions_built() as built:
            lines = [line_through(v, pivot) for v in PENTAGON]
            meet = intersect_lines(lines[0], lines[1])
            verdicts = are_concurrent(lines), are_concurrent(result.cevians)
            on_line = [line.contains(meet) for line in result.cevians]
            parallel = [line.is_parallel_to(lines[0]) for line in lines]
        assert verdicts == (True, False) and meet == pivot
        assert on_line.count(True) == 3 and parallel.count(True) == 1
        assert built[0] == 0
