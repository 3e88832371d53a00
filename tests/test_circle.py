"""Engine tests for inscribed polygons: parametrized circle points,
second circle points, and the squared product identity."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polyceva.errors import DegenerateConfig, InvariantViolation, Tangent
from polyceva.geometry import Point, line_through
from polyceva.circle import (
    InscribedConfig,
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
