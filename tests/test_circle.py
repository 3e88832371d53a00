"""Engine tests for inscribed polygons: parametrized circle points,
second circle points, and the squared product identity."""

import math
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import polyceva.circle
from polyceva.ceva import PARITY_SIGNS, factor_product
from polyceva.errors import (
    ConfigError,
    DegenerateConfig,
    GeometryError,
    InvariantViolation,
    Tangent,
)
from polyceva.geometry import Point, line_through
from polyceva.circle import (
    InscribedConfig,
    InscribedReport,
    chord_telescoping_squared,
    concurrent_secants_check,
    inscribed_chord_product_squared,
    inscribed_identity_report,
    similar_triangles_relation,
)
from polyceva.fuzz import GenParams, gen_inscribed_config

from _exact_oracle import AffineMap, affine_apply, circle_point, distance_squared
from _float_oracle import float_side_product

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=10)
radii = st.fractions(min_value=F(1, 5), max_value=6, max_denominator=8)

PENTAGON_US = (F(-2), F(-1, 2), F(0), F(1, 2), F(2))
PENTAGON_VS = (F(3), F(5), F(-3), F(7), F(1, 3))


def pentagon_config() -> InscribedConfig:
    return InscribedConfig(F(1), PENTAGON_US,
                           PENTAGON_VS, 2, 1)


def inscribed_triangle_with_common_point() -> InscribedConfig:
    us = (F(-1, 3), F(1, 5), F(4))
    pts = [circle_point(u, F(1)) for u in us]
    pivot = Point(sum(p.x for p in pts) / 3, sum(p.y for p in pts) / 3)
    return InscribedConfig(F(1), us, (pivot,) * len(us), 1, 1)


class TestCirclePoint:
    def test_param_zero(self):
        assert circle_point(F(0), F(1)) == Point(F(1), F(0))

    def test_param_one(self):
        assert circle_point(F(1), F(1)) == Point(F(0), F(1))

    def test_three_four_five(self):
        assert circle_point(F(1, 2), F(1)) == Point(F(3, 5), F(4, 5))

    @given(rationals, radii)
    def test_on_circle(self, u, r):
        p = circle_point(u, r)
        assert p.x * p.x + p.y * p.y == r * r


class TestInscribedConfigValidation:
    def test_params_must_increase(self):
        with pytest.raises(InvariantViolation):
            InscribedConfig(F(1), (F(1), F(0), F(2)),
                            (F(7),) * 3, 1, 1)
        # Equal values, and a step down between different denominators.
        for params in [(F(0), F(1, 2), F(2, 4)), (F(-4, 3), F(-3, 2), F(5))]:
            with pytest.raises(InvariantViolation,
                               match="^circle parameters must be strictly "
                                     "increasing$"):
                InscribedConfig(F(1), params, (F(7),) * 3, 1, 1)

    def test_second_param_not_a_vertex(self):
        with pytest.raises(InvariantViolation):
            InscribedConfig(F(1), (F(0), F(1), F(2)),
                            (F(1),) * 3, 1, 1)

    def test_through_point_not_the_vertex(self):
        with pytest.raises(InvariantViolation):
            InscribedConfig(F(1), (F(0), F(1), F(2)),
                            (Point(F(1), F(0)),) * 3, 1, 1)

    def test_split_checked(self):
        with pytest.raises(InvariantViolation):
            InscribedConfig(F(1), PENTAGON_US,
                            PENTAGON_VS, 1, 1)

    def test_unknown_spec(self):
        with pytest.raises(InvariantViolation,
                           match="^line 1: unknown spec None$"):
            InscribedConfig(1, [0, 1, 2], [None, 3, 4], 1, 1)

    def test_spec_count(self):
        with pytest.raises(InvariantViolation):
            InscribedConfig(F(1), PENTAGON_US,
                            PENTAGON_VS[:4], 2, 1)

    def test_radius_positive(self):
        with pytest.raises(InvariantViolation):
            InscribedConfig(F(-1), PENTAGON_US,
                            PENTAGON_VS, 2, 1)
        for radius, text in [(F(0), "0"), (F(-1, 3), "-1/3")]:
            with pytest.raises(InvariantViolation,
                               match=f"^radius must be positive, got {text}$"):
                InscribedConfig(radius, PENTAGON_US, PENTAGON_VS, 2, 1)

    def test_tangent_line_rejected(self):
        # The vertical through (1, 0) is tangent to the unit circle.
        with pytest.raises(Tangent):
            InscribedConfig(F(1), (F(0), F(1), F(2)),
                            (Point(F(1), F(5)), F(9), F(-5)), 1, 1)

    # Each vertex is checked in full before the next: its tangency, its
    # second circle point, then its side crossings.
    def test_vertex_sides_checked_before_next_tangency(self):
        # A_1 = (0, -1), A_2 = (1, 0), A_3 = (0, 1).  Line 1 runs along
        # (1, -1), parallel to side A_2 A_3; line 2 is the vertical
        # tangent at A_2.
        with pytest.raises(DegenerateConfig) as info:
            InscribedConfig(F(1), (F(-1), F(0), F(1)),
                            (Point(F(1), F(-2)),
                             Point(F(1), F(5)),
                             F(5)), 1, 1)
        exc = info.value
        assert (exc.reason, exc.i, exc.j) == (DegenerateConfig.PARALLEL, 1, 2)

    def test_tangency_checked_before_next_vertex_sides(self):
        # A_1 = (0, -1), A_2 = (1, 0), A_3 = (-3/5, 4/5).  Line 1 is the
        # horizontal tangent at A_1; line 2 runs along (1, -3), parallel
        # to side A_3 A_1.
        with pytest.raises(Tangent):
            InscribedConfig(F(1), (F(-1), F(0), F(2)),
                            (Point(F(3), F(-1)),
                             Point(F(2), F(-3)),
                             F(5)), 1, 1)

    def test_vertices_in_circular_order(self):
        cfg = pentagon_config()
        assert cfg.vertices == tuple(circle_point(u, F(1)) for u in PENTAGON_US)


class TestSideProduct:
    def test_concurrent_lines_give_signed_unit(self):
        cfg = inscribed_triangle_with_common_point()
        product, factors = inscribed_identity_report(cfg).lhs, cfg.factors
        assert product == -1
        assert len(factors) == 3

    def test_pentagon_fixture(self):
        cfg = pentagon_config()
        product, factors = inscribed_identity_report(cfg).lhs, cfg.factors
        assert product == -27
        assert len(factors) == 5

    def test_float_cross_check(self):
        cfg = pentagon_config()
        product = inscribed_identity_report(cfg).lhs
        verts = [(float(p.x), float(p.y)) for p in cfg.vertices]
        others = [(float(circle_point(v, F(1)).x), float(circle_point(v, F(1)).y))
                  for v in PENTAGON_VS]
        assert abs(float_side_product(verts, others, 2, 1) - float(product)) < 1e-9


class TestChordProduct:
    def test_concurrent_chord_magnitude_is_one(self):
        assert inscribed_chord_product_squared(
            inscribed_triangle_with_common_point()) == 1

    def test_pentagon_fixture_matches_square_of_lhs(self):
        cfg = pentagon_config()
        lhs = inscribed_identity_report(cfg).lhs
        assert inscribed_chord_product_squared(cfg) == lhs * lhs == 729

    def test_random_configs(self):
        params = GenParams(seed=53, n_min=3, n_max=7)
        for trial in range(20):
            cfg = gen_inscribed_config(params, trial)
            lhs = inscribed_identity_report(cfg).lhs
            assert inscribed_chord_product_squared(cfg) == lhs * lhs


class TestSimilarTrianglesRelation:
    def test_pentagon_fixture_all_vertices(self):
        cfg = pentagon_config()
        assert all(similar_triangles_relation(cfg, i) for i in range(1, 6))

    def test_exterior_first_crossing(self):
        # The first crossing for vertex 1 falls outside the circle here;
        # the factorization must hold in that case too.
        cfg = InscribedConfig(F(1), (F(-5, 2), F(-1, 3), F(0)),
                              (F(5), F(-4), F(-1, 2)), 1, 1)
        vertices = cfg.vertices
        side = line_through(vertices[1], vertices[2])
        from polyceva.geometry import intersect_lines
        crossing = intersect_lines(line_through(vertices[0], cfg.m_primes[0]),
                                   side)
        assert crossing.x ** 2 + crossing.y ** 2 > 1
        assert all(similar_triangles_relation(cfg, i) for i in range(1, 4))

    def test_interior_first_crossing(self):
        cfg = inscribed_triangle_with_common_point()
        assert all(similar_triangles_relation(cfg, i) for i in range(1, 4))

    def test_index_out_of_range(self):
        cfg = pentagon_config()
        for i in (0, -1, 6):
            with pytest.raises(ValueError,
                               match=fr"^index {i} out of range 1\.\.5$"):
                similar_triangles_relation(cfg, i)

    def test_random_configs(self):
        params = GenParams(seed=59, n_min=3, n_max=7)
        for trial in range(15):
            cfg = gen_inscribed_config(params, trial)
            assert all(similar_triangles_relation(cfg, i)
                       for i in range(1, cfg.n + 1))


class TestChordTelescoping:
    def test_pentagon_fixture(self):
        assert chord_telescoping_squared(pentagon_config()) == 1

    def test_triangle_each_chord_up_and_down(self):
        cfg = inscribed_triangle_with_common_point()
        assert chord_telescoping_squared(cfg) == 1

    def test_index_pairing_cancels_by_hand(self):
        # Independent oracle: expand the chord pairing for n=5, s=2.
        # Numerators pair {i, i+2}; denominators pair {i, i+3} = {i-2, i}.
        # As unordered pairs the two multisets coincide, so everything
        # cancels.
        n, s, t = 5, 2, 1
        numerators = [frozenset({i, (i - 1 + s) % n + 1}) for i in range(1, n + 1)]
        denominators = [frozenset({i, (i - 1 + s + t) % n + 1})
                        for i in range(1, n + 1)]
        assert sorted(numerators, key=sorted) == sorted(denominators, key=sorted)
        cfg = pentagon_config()
        vertices = cfg.vertices
        chord = {pair: distance_squared(vertices[min(pair) - 1],
                                        vertices[max(pair) - 1])
                 for pair in numerators}
        product = F(1)
        for up, down in zip(numerators, denominators):
            product *= chord[up] / chord[down]
        assert product == 1

    def test_random_configs(self):
        params = GenParams(seed=61, n_min=3, n_max=7)
        for trial in range(15):
            cfg = gen_inscribed_config(params, trial)
            assert chord_telescoping_squared(cfg) == 1


class TestConcurrentSecants:
    def test_inscribed_triangle(self):
        report = concurrent_secants_check(inscribed_triangle_with_common_point())
        assert report.lhs == -1
        assert report.rhs_squared == 1
        assert report.holds

    def test_common_point_and_pinned_sign(self):
        cfg = inscribed_triangle_with_common_point()
        assert cfg.common_point == cfg.line_specs[0]
        assert concurrent_secants_check(cfg).expected == -1
        assert inscribed_identity_report(cfg).expected is None
        us = (F(-2), F(0), F(1, 2))
        shared = Point(F(1, 10), F(1, 10))
        # Through-points off the shared one differ from it in x only, in
        # y only, or in both.
        for specs in [(shared, shared, Point(F(1, 7), F(1, 5))),
                      (shared, shared, Point(F(1, 10), F(1, 5))),
                      (shared, shared, Point(F(1, 5), F(1, 10))),
                      (shared, shared, F(5))]:
            assert InscribedConfig(F(1), us, specs, 1, 1).common_point is None
        assert pentagon_config().common_point is None

    def test_inscribed_quadrilateral(self):
        us = (F(-2), F(0), F(1, 2), F(3))
        pivot = Point(F(1, 10), F(1, 10))
        cfg = InscribedConfig(F(1), us, (pivot,) * 4, 1, 2)
        report = concurrent_secants_check(cfg)
        assert report.lhs == 1
        assert report.rhs_squared == 1
        assert report.holds

    def test_not_concurrent_specs(self):
        cfg = pentagon_config()
        with pytest.raises(ValueError, match="do not share one common point"):
            concurrent_secants_check(cfg)

    def test_distinct_points_rejected(self):
        us = (F(-2), F(0), F(1, 2), F(3))
        specs = (Point(F(1, 10), F(1, 10)),) * 3 \
            + (Point(F(1, 7), F(1, 5)),)
        cfg = InscribedConfig(F(1), us, specs, 1, 2)
        with pytest.raises(ValueError, match="do not share one common point"):
            concurrent_secants_check(cfg)

    def test_random_common_points(self):
        params = GenParams(seed=67, n_min=3, n_max=6)
        for trial in range(10):
            cfg = gen_inscribed_config(params, trial, concurrent=True)
            report = concurrent_secants_check(cfg)
            assert report.lhs == F(-1) ** cfg.n
            assert report.rhs_squared == 1
            assert report.holds


class TestOppositeSideCheck:
    def test_pentagon_common_point(self):
        us = (F(-3), F(-1, 2), F(1, 4), F(1), F(5))
        pts = [circle_point(u, F(2)) for u in us]
        pivot = Point(sum(p.x for p in pts) / 5, sum(p.y for p in pts) / 5)
        cfg = InscribedConfig(F(2), us, (pivot,) * len(us), 2, 1)
        report = inscribed_identity_report(cfg)
        assert report.lhs == -1
        assert report.rhs_squared == 1
        assert report.holds

    def test_pentagon_independent_lines(self):
        report = inscribed_identity_report(pentagon_config())
        assert report.lhs_squared == report.rhs_squared
        assert report.holds


class TestRotationInvariance:
    def test_rational_rotation_preserves_products(self):
        # Rotation by the rational circle point (3/5, 4/5) acts on the
        # parameter line as u -> (u + 1/2)/(1 - u/2).
        c, s0 = F(3, 5), F(4, 5)
        w = s0 / (1 + c)
        rotation = AffineMap(c, -s0, s0, c, 0, 0)

        def xform(u: F) -> F:
            return (u + w) / (1 - u * w)

        us = (F(-3), F(-1), F(0), F(1, 3), F(1))
        vs = (F(4), F(-5), F(6), F(-7), F(5, 3))
        cfg = InscribedConfig(F(1), us, vs, 2, 1)
        for u in us + vs:
            assert circle_point(xform(u), F(1)) == \
                affine_apply(rotation, circle_point(u, F(1)))

        new_us = [xform(u) for u in us]
        new_vs = [xform(v) for v in vs]
        shift = new_us.index(min(new_us))
        rotated = InscribedConfig(
            F(1), tuple(new_us[shift:] + new_us[:shift]),
            tuple(new_vs[shift:] + new_vs[:shift]),
            2, 1)

        lhs = inscribed_identity_report(cfg).lhs
        lhs_rot = inscribed_identity_report(rotated).lhs
        assert lhs == lhs_rot
        assert inscribed_chord_product_squared(cfg) == \
            inscribed_chord_product_squared(rotated)


class TestIdentityReport:
    def test_report_fields_consistent(self):
        report = inscribed_identity_report(pentagon_config())
        assert report.lhs_squared == report.lhs ** 2
        assert report.holds == (report.lhs_squared == report.rhs_squared)
        assert len(report.config.m_primes) == 5

    def test_second_points_on_circle(self):
        for p in pentagon_config().m_primes:
            assert p.x ** 2 + p.y ** 2 == 1

    def test_vertex_lines_contain_vertices(self):
        # d_i, drawn through A_i and M'_i, is the line specified through
        # the common point.
        cfg = inscribed_triangle_with_common_point()
        for a, m_prime in zip(cfg.vertices, cfg.m_primes):
            assert line_through(a, m_prime) == line_through(a, cfg.common_point)


def _built(*args):
    """The config of these arguments, or the class and message of the
    exception its constructor raises."""
    try:
        return InscribedConfig(*args)
    except (ConfigError, GeometryError, ValueError) as exc:
        return type(exc), str(exc)


def _scaled(value: F, k: int) -> tuple[int, int]:
    """An unreduced integer pair of ``value``."""
    return value.numerator * k, value.denominator * k


@st.composite
def inscribed_args(draw):
    """Constructor arguments as Fractions and Points, mostly valid: now
    and then the radius is not positive, the parameters do not increase,
    a second parameter is a vertex's, or the split is wrong, and random
    lines are sometimes tangent or parallel to a side."""
    n = draw(st.integers(3, 7))
    s = draw(st.integers(1, (n - 1) // 2))
    t = draw(st.sampled_from([n - 2 * s, n - 2 * s, n - 2 * s, n - s]))
    radius = draw(st.sampled_from([F(1), F(5, 3), F(1, 7), F(2), F(7, 2),
                                   F(4, 9), F(0), F(-2)]))
    params = draw(st.lists(rationals, min_size=n, max_size=n, unique=True))
    if draw(st.integers(0, 5)):
        params.sort()
    point = st.builds(Point, rationals, rationals)
    if draw(st.booleans()):
        specs = [draw(point)] * n
    else:
        specs = draw(st.lists(st.one_of(rationals, point), min_size=n,
                              max_size=n))
        if not draw(st.integers(0, 5)):
            specs[draw(st.integers(0, n - 1))] = draw(st.sampled_from(params))
    return radius, params, specs, s, t


class TestPairConstruction:
    """Integer pairs, reduced or not, build the same config as the
    Fractions of their values, and the report's integer verdicts agree
    with the Fraction formulas."""

    @settings(max_examples=300, deadline=None)
    @given(inscribed_args(), st.integers(1, 6))
    def test_pairs_build_what_fractions_build(self, args, k):
        radius, params, specs, s, t = args
        by_fractions = _built(radius, params, specs, s, t)
        by_pairs = _built(_scaled(radius, k), [_scaled(u, k) for u in params],
                          [spec if isinstance(spec, Point) else _scaled(spec, k)
                           for spec in specs], s, t)
        if isinstance(by_fractions, tuple):
            assert by_pairs == by_fractions
            return
        assert repr(by_pairs) == repr(by_fractions)
        assert by_pairs == by_fractions and hash(by_pairs) == hash(by_fractions)
        for name in ("factors", "m_prime_pairs", "common_point", "parts",
                     "param_pairs"):
            assert getattr(by_pairs, name) == getattr(by_fractions, name)
        assert by_pairs.radius == radius
        assert by_pairs.params == tuple(params)
        assert by_pairs.line_specs == tuple(specs)

    @pytest.mark.parametrize("radius, params, specs, s, t", [
        # Tangent at A_1; parallel to a side; a through-point on A_1;
        # M'_1 on A_2.
        (F(1), (F(0), F(1), F(2)), (Point(1, 5), F(9), F(-5)), 1, 1),
        (F(1), (F(-1), F(0), F(1)), (Point(1, -2), Point(1, 5), F(5)), 1, 1),
        (F(1), (F(0), F(1), F(2)), (Point(1, 0), F(9), F(-5)), 1, 1),
        (F(1), (F(0), F(1), F(2)), (Point(F(1, 2), F(1, 2)), F(9), F(-5)),
         1, 1),
    ])
    def test_degenerate_inputs_raise_alike(self, radius, params, specs, s, t):
        by_fractions = _built(radius, params, specs, s, t)
        assert isinstance(by_fractions, tuple)
        assert _built(_scaled(radius, 3), [_scaled(u, 2) for u in params],
                      [spec if isinstance(spec, Point) else _scaled(spec, 5)
                       for spec in specs], s, t) == by_fractions

    @pytest.mark.parametrize("radius, params, specs", [
        ((1, 0), [0, 1, 2], [7, 8, 9]),
        ((1, -2), [0, 1, 2], [7, 8, 9]),
        (1, [0, (1, 0), 2], [7, 8, 9]),
        (1, [0, 1, 2], [7, (8, -1), 9]),
    ])
    def test_pair_denominators_must_be_positive(self, radius, params, specs):
        with pytest.raises(ValueError,
                           match="^rational denominators must be positive"):
            InscribedConfig(radius, params, specs, 1, 1)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-string limit before Python 3.11")
    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_report_matches_fraction_formulas(self, data):
        """At the lowest int-string limit, with 1000-digit parts, each
        report field is its Fraction formula, and the verdict is that of
        the report's own fields."""
        num = st.integers(-(10 ** 1000 - 1), 10 ** 1000 - 1)
        den = st.integers(1, 10 ** 1000 - 1)
        big = st.builds(F, num, den)
        n = data.draw(st.integers(3, 5))
        s = data.draw(st.integers(1, (n - 1) // 2))
        params = sorted(set(data.draw(st.lists(big, min_size=n, max_size=n))))
        assume(len(params) == n)
        concurrent = data.draw(st.booleans())
        specs = ([Point(data.draw(big), data.draw(big))] * n if concurrent
                 else data.draw(st.lists(big, min_size=n, max_size=n)))
        radius = abs(data.draw(big)) + 1
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            cfg = _built(radius, params, specs, s, n - 2 * s)
            assume(isinstance(cfg, InscribedConfig))
            check = (concurrent_secants_check if concurrent
                     else inscribed_identity_report)
            expected = PARITY_SIGNS[n % 2] if concurrent else None
            chords = polyceva.circle.inscribed_chord_product_squared
            # The true chord product, then a falsified one.
            for scale in (1, 4):
                with mock.patch.object(polyceva.circle,
                                       "inscribed_chord_product_squared",
                                       lambda cfg: scale * chords(cfg)):
                    report = check(cfg)
                    assert report == InscribedReport(cfg, expected)
                lhs = F(*factor_product(cfg.factors))
                lhs_squared = lhs * lhs
                rhs_squared = scale * chords(cfg)
                holds = lhs_squared == rhs_squared
                if expected is not None:
                    holds = holds and lhs == expected and rhs_squared == 1
                assert (report.lhs, report.lhs_squared, report.rhs_squared) == \
                    (lhs, lhs_squared, rhs_squared)
                assert report.parts == tuple(
                    (v.numerator, v.denominator) for v in (lhs, rhs_squared))
                assert math.gcd(*report.parts[0]) == 1
                assert report.holds is holds is (scale == 1)
                # The verdict agrees with the report's own values.
                own = report.lhs_squared == report.rhs_squared
                if expected is not None:
                    own = (own and report.lhs == expected
                           and report.rhs_squared == 1)
                assert report.holds is own
                assert report.expected == expected
                assert repr(report).count("Fraction(") >= 3
        finally:
            sys.set_int_max_str_digits(limit)
