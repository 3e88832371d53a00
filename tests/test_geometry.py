"""Kernel tests: exact constructions and their invariants, with the
oracle's reference predicates and directed ratios."""

import contextlib
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polyceva.errors import InvalidRational
from polyceva.geometry import (
    Line,
    Point,
    are_concurrent,
    MAX_DIGITS,
    format_rational,
    homogeneous,
    intersect_lines,
    line_through,
    parse_parts,
    parse_rational,
    point_from_ratio,
)

import _exact_oracle as oracle
from _exact_oracle import (
    AffineMap,
    NotCollinear,
    affine_apply,
    directed_ratio,
    distance_squared,
    is_collinear,
    signed_area2,
)

ROOT = Path(__file__).resolve().parent.parent

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
points = st.builds(Point, rationals, rationals)


def pt(x, y) -> Point:
    return Point(F(x), F(y))


class TestRationalWire:
    @pytest.mark.parametrize("text,value", [
        ("0", F(0)),
        ("-7", F(-7)),
        ("4/6", F(2, 3)),
        ("+3/9", F(1, 3)),
        ("-12/8", F(-3, 2)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text,parts", [
        ("0", (0, 1)),
        ("-0/3", (0, 3)),
        ("-7", (-7, 1)),
        ("4/6", (4, 6)),
        ("+3/9", (3, 9)),
        ("-12/8", (-12, 8)),
    ])
    def test_parse_parts_unreduced(self, text, parts):
        assert parse_parts(text) == parts
        assert F(*parts) == parse_rational(text)

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "a", "1/-2", "", "1 / 2", None, 3,
                                     "4\n"])
    def test_rejects(self, bad):
        with pytest.raises(InvalidRational):
            parse_rational(bad)
        with pytest.raises(InvalidRational):
            parse_parts(bad)

    def test_float_coordinate_rejected(self):
        with pytest.raises(TypeError, match="cannot interpret 1.5 as a rational"):
            Point(1.5, 0)

    def test_rejects_non_ascii_digits(self):
        with pytest.raises(InvalidRational):
            parse_rational("\uff14")

    def test_digit_limit(self):
        assert parse_rational("-" + "9" * MAX_DIGITS + "/1") == -(10 ** MAX_DIGITS - 1)
        longest = "9" * MAX_DIGITS
        assert parse_rational(f"+{longest}/{longest}") == 1
        for bad in ("9" * (MAX_DIGITS + 1), "1/" + "9" * (MAX_DIGITS + 1),
                    f"-{longest}9/1", f"{longest}/{longest}9"):
            with pytest.raises(InvalidRational, match="digits in a part"):
                parse_rational(bad)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_format(self):
        assert format_rational(F(3, 1)) == "3"
        assert format_rational(F(-1, 2)) == "-1/2"

    def test_format_past_the_int_string_limit(self):
        """Python's int-to-str conversion stops at 4300 digits by default;
        format_rational does not."""
        assert format_rational(F(10 ** 5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
        assert format_rational(F(-(10 ** 9000), 7)) == "-1" + "0" * 9000 + "/7"
        assert format_rational(F(1, 10 ** 5000 + 1)) == "1/1" + "0" * 4999 + "1"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-string limit on this interpreter")
    @settings(max_examples=60)
    @given(st.integers(1, 12_000), st.integers(1, 12_000), st.randoms())
    def test_format_matches_unlimited_str(self, num_digits, den_digits, rnd):
        num = rnd.randrange(-10 ** num_digits, 10 ** num_digits)
        den = rnd.randrange(1, 10 ** den_digits)
        value = F(num, den)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert format_rational(value) == want

    def test_largest_parts_round_trip(self):
        text = "-" + "9" * MAX_DIGITS + "/1" + "0" * (MAX_DIGITS - 1)
        assert format_rational(parse_rational(text)) == text


class TestLineThrough:
    def test_diagonal(self):
        assert line_through(pt(0, 0), pt(1, 1)) == Line(1, -1, 0)

    def test_vertical_axis(self):
        assert line_through(pt(0, 0), pt(0, 5)) == Line(1, 0, 0)

    def test_fractional_intercepts(self):
        # Through (1/2, 0) and (0, 1/3): 2x + 3y - 1 = 0, scaled to lead with 1.
        line = line_through(Point(F(1, 2), F(0)), Point(F(0), F(1, 3)))
        assert line == Line(F(1), F(3, 2), F(-1, 2))

    def test_identical_points(self):
        with pytest.raises(ValueError,
                           match="no unique line through coincident points"):
            line_through(pt(2, 3), pt(2, 3))

    @given(points, points)
    def test_contains_both_endpoints(self, p, q):
        if p == q:
            return
        line = line_through(p, q)
        assert line.value_at(p) == 0
        assert line.value_at(q) == 0


class TestIntersectLines:
    def test_symmetric_crossing(self):
        assert intersect_lines(Line(1, -1, 0), Line(1, 1, -1)) == Point(F(1, 2), F(1, 2))

    def test_parallel_verticals(self):
        with pytest.raises(ValueError, match="parallel lines"):
            intersect_lines(Line(1, 0, 0), Line(1, 0, -1))

    def test_coincident(self):
        with pytest.raises(ValueError, match="lines coincide"):
            intersect_lines(Line(2, 4, 6), Line(1, 2, 3))

    def test_hand_solved_crossing(self):
        # 2x + 3y - 1 = 0 meets x - 4y + 2 = 0: substitute x = 4y - 2 to get
        # 11y = 5, hence (-2/11, 5/11).
        p = intersect_lines(Line(2, 3, -1), Line(1, -4, 2))
        assert p == Point(F(-2, 11), F(5, 11))

    @given(points, points, points, points)
    def test_result_on_both_lines(self, p1, p2, q1, q2):
        if p1 == p2 or q1 == q2:
            return
        l1 = line_through(p1, p2)
        l2 = line_through(q1, q2)
        if l1.is_parallel_to(l2):
            return
        crossing = intersect_lines(l1, l2)
        assert l1.value_at(crossing) == 0
        assert l2.value_at(crossing) == 0


class TestSignedArea:
    def test_unit_right_triangle(self):
        assert signed_area2(pt(0, 0), pt(1, 0), pt(0, 1)) == 1

    def test_orientation_flip(self):
        assert signed_area2(pt(0, 0), pt(0, 1), pt(1, 0)) == -1

    def test_hand_determinant(self):
        assert signed_area2(pt(0, 0), pt(2, 0), pt(1, 5)) == 10

    @given(points, points, points)
    def test_antisymmetric(self, p, q, r):
        area = signed_area2(p, q, r)
        assert signed_area2(q, p, r) == -area
        assert signed_area2(p, r, q) == -area


class TestHomogeneous:
    @pytest.mark.parametrize("p, xyw", [
        (pt(0, 0), (0, 0, 1)),
        (pt(F(1, 6), F(-3, 4)), (2, -9, 12)),
        (pt(F(-5, 3), 7), (-5, 21, 3)),
        (pt(F(2, 9), F(4, 9)), (2, 4, 9)),
    ])
    def test_hand_cases(self, p, xyw):
        assert homogeneous(p) == xyw

    @given(st.builds(Point, st.fractions(max_denominator=10**40),
                     st.fractions(max_denominator=10**40)))
    def test_reconstructs_with_least_positive_w(self, p):
        x, y, w = homogeneous(p)
        assert w > 0
        assert (F(x, w), F(y, w)) == (p.x, p.y)
        # Every W that clears both denominators is a multiple of the
        # least one, so W is least iff X, Y and W share no factor.
        assert math.gcd(x, y, w) == 1


def _lcm_triple(x: F, y: F) -> tuple[int, int, int]:
    """The homogeneous triple of (x, y) by the lcm of the denominators."""
    w = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator),
            y.numerator * (w // y.denominator), w)


class TestPointFromParts:
    """Point.from_parts(xn, xd, yn, yd) is Point(F(xn, xd), F(yn, yd))."""

    @staticmethod
    def check(xn, xd, yn, yd):
        x, y = F(xn, xd), F(yn, yd)
        built = Point.from_parts(xn, xd, yn, yd)
        want = Point(x, y)
        assert built == want and hash(built) == hash(want) == hash((x, y))
        assert repr(built) == repr(want)
        assert homogeneous(built) == homogeneous(want) == _lcm_triple(x, y)
        assert built.parts == want.parts == (
            x.numerator, x.denominator, y.numerator, y.denominator)
        assert (built.x, built.y) == (x, y)

    @pytest.mark.parametrize("parts", [
        (0, 1, 0, 1),
        (0, 5, 0, 3),
        (-4, 6, -9, 12),
        (10, 4, 21, 14),
        (-7, 1, 3, 9),
        (6, 3, -8, 2),
    ])
    def test_hand_cases(self, parts):
        self.check(*parts)

    @given(st.integers(), st.integers(1, 10**40),
           st.integers(), st.integers(1, 10**40))
    def test_any_parts(self, xn, xd, yn, yd):
        self.check(xn, xd, yn, yd)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-string limit on this interpreter")
    def test_parts_past_the_int_string_limit(self):
        big = 10 ** 700 + 3
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            self.check(-6 * big, 4 * 3 ** 1400, big, 10 ** 650)
            self.check(big, big * 7, -(big ** 2), 1)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("parts", [
        (1, 0, 1, 1), (1, 1, 1, 0), (1, -2, 1, 1), (1, 1, 1, -3), (0, 0, 0, 0)])
    def test_denominator_not_positive(self, parts):
        with pytest.raises(ValueError, match="denominators must be positive"):
            Point.from_parts(*parts)


class TestCollinear:
    def test_diagonal(self):
        assert is_collinear(pt(0, 0), pt(1, 1), pt(2, 2))

    def test_triangle(self):
        assert not is_collinear(pt(0, 0), pt(1, 0), pt(0, 1))

    def test_scalar_multiples(self):
        assert is_collinear(pt(0, 0), Point(F(1, 3), F(1, 7)), Point(F(2, 3), F(2, 7)))


class TestDirectedRatio:
    def test_from_definition(self):
        assert directed_ratio(pt(0, 0), pt(1, 0), pt(-2, 0)) == F(-1, 2)

    def test_midpoint(self):
        assert directed_ratio(pt(2, 3), pt(1, 2), pt(3, 4)) == -1

    def test_external_same_side(self):
        assert directed_ratio(pt(2, 0), pt(1, 0), pt(0, 0)) == F(1, 2)

    def test_not_collinear(self):
        with pytest.raises(NotCollinear):
            directed_ratio(pt(0, 0), pt(1, 0), pt(0, 1))

    def test_denominator_end(self):
        with pytest.raises(ValueError, match="coincides with the denominator end"):
            directed_ratio(pt(1, 1), pt(0, 0), pt(1, 1))

    def test_vertical_uses_y(self):
        assert directed_ratio(pt(0, 0), pt(0, 3), pt(0, 2)) == F(3, 2)

    @given(points, points, rationals)
    def test_reciprocal(self, a, b, lam):
        if a == b or lam in (0, 1):
            return
        x = Point(a.x + lam * (b.x - a.x), a.y + lam * (b.y - a.y))
        assert directed_ratio(x, a, b) * directed_ratio(x, b, a) == 1

    @given(points, points, rationals,
           st.tuples(rationals, rationals, rationals, rationals,
                     rationals, rationals))
    def test_affine_invariance(self, a, b, lam, coeffs):
        if a == b or lam == 1:
            return
        m11, m12, m21, m22, tx, ty = coeffs
        if m11 * m22 - m12 * m21 == 0:
            return
        mapping = AffineMap(m11, m12, m21, m22, tx, ty)
        x = Point(a.x + lam * (b.x - a.x), a.y + lam * (b.y - a.y))
        expected = directed_ratio(x, a, b)
        assert directed_ratio(affine_apply(mapping, x), affine_apply(mapping, a),
                              affine_apply(mapping, b)) == expected


class TestPointFromRatio:
    @given(points, points, rationals)
    def test_realizes_ratio(self, a, b, ratio):
        if a == b or ratio == 1:
            return
        x = point_from_ratio(a, b, ratio)
        assert directed_ratio(x, a, b) == ratio

    @given(points, points, st.integers(-50, 50), st.integers(-50, 50))
    def test_integer_pair_is_its_ratio(self, a, b, p, q):
        """A pair (p, q), in any signs and not reduced, is the ratio p/q."""
        if a == b or q == 0 or p == q:
            return
        assert point_from_ratio(a, b, (p, q)) == point_from_ratio(a, b, F(p, q))

    def test_ratio_one_impossible(self):
        with pytest.raises(ValueError):
            point_from_ratio(pt(0, 0), pt(1, 0), 1)

    @pytest.mark.parametrize("pair", [(3, 3), (-2, -2), (5, 0), (0, 0)])
    def test_pair_of_ratio_one_or_den_zero_raises(self, pair):
        with pytest.raises(ValueError, match="ratio 1 or p/0"):
            point_from_ratio(pt(0, 0), pt(1, 0), pair)

    def test_coincident_ends_raise(self):
        with pytest.raises(ValueError, match="coincides with the denominator end"):
            point_from_ratio(pt(2, 5), pt(2, 5), F(3, 7))

    def test_coincident_ends_raise_without_asserts(self):
        code = ("from polyceva.geometry import Point, point_from_ratio\n"
                "try:\n"
                "    point_from_ratio(Point(2, 5), Point(2, 5), 3)\n"
                "except ValueError:\n"
                "    print('raised')\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True, cwd=ROOT)
        assert proc.stdout == "raised\n"


class TestConcurrency:
    def test_medians(self):
        a, b, c = pt(0, 0), pt(4, 0), pt(0, 4)
        medians = [
            line_through(a, Point((b.x + c.x) / 2, (b.y + c.y) / 2)),
            line_through(b, Point((a.x + c.x) / 2, (a.y + c.y) / 2)),
            line_through(c, Point((a.x + b.x) / 2, (a.y + b.y) / 2)),
        ]
        assert are_concurrent(medians)

    def test_triangle_sides(self):
        assert not are_concurrent([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1)])

    def test_all_parallel(self):
        assert not are_concurrent([Line(1, 0, 0), Line(1, 0, -1), Line(1, 0, -2)])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate line in concurrency test"):
            are_concurrent([Line(1, 0, 0), Line(2, 0, 0)])

    def test_needs_two(self):
        with pytest.raises(ValueError):
            are_concurrent([Line(1, 0, 0)])

    @given(points, points, points)
    def test_medians_of_random_triangle(self, a, b, c):
        if signed_area2(a, b, c) == 0:
            return
        medians = [
            line_through(a, Point((b.x + c.x) / 2, (b.y + c.y) / 2)),
            line_through(b, Point((a.x + c.x) / 2, (a.y + c.y) / 2)),
            line_through(c, Point((a.x + b.x) / 2, (a.y + b.y) / 2)),
        ]
        assert are_concurrent(medians)


class TestAffine:
    def test_identity(self):
        assert affine_apply(AffineMap.identity(), pt(3, 4)) == pt(3, 4)

    def test_translation(self):
        assert affine_apply(AffineMap(1, 0, 0, 1, 1, 1), pt(0, 0)) == pt(1, 1)

    def test_axis_scaling(self):
        assert affine_apply(AffineMap(2, 0, 0, 3, 0, 0), pt(1, 1)) == pt(2, 3)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(1, 2, 2, 4, 0, 0)


class TestLineCanonicalForm:
    def test_scaling_collapses(self):
        assert Line(2, 4, 6) == Line(1, 2, 3)
        assert Line(0, -5, 10) == Line(0, 1, -2)

    def test_zero_line_rejected(self):
        with pytest.raises(ValueError):
            Line(0, 0, 1)

    def test_distance_squared(self):
        assert distance_squared(pt(0, 0), pt(3, 4)) == 25


@contextlib.contextmanager
def _lowest_int_str_limit():
    """Python's lowest int-string limit, where the interpreter has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _outcome(f, *args):
    """f(*args), or the text of the ValueError it raises; a Line or a
    Point is given as its repr, so the library's and the oracle's
    classes compare."""
    try:
        value = f(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    return repr(value) if isinstance(value, (Line, oracle.Line, Point)) else value


# Coefficients and coordinates: small ones, so that zeros, parallels and
# duplicates are drawn, and parts of up to 1000 digits.
huge = st.integers(-10 ** 1000, 10 ** 1000)
coefficients = st.one_of(st.integers(-2, 2), rationals,
                         st.builds(F, huge, st.integers(1, 10 ** 1000)))
wide_points = st.one_of(points, st.builds(Point, coefficients, coefficients))


@st.composite
def line_families(draw):
    """Lines through one common point, lines from coefficients, lines
    parallel to the one before and lines through two points, as
    (library, oracle) pairs: distinct lines in any order, now and then
    a single line or one drawn twice."""
    common = draw(wide_points)
    pool = []
    for kind in draw(st.lists(st.sampled_from("pc=j"), min_size=1, max_size=6)):
        if kind == "p":
            args = common, draw(wide_points)
        elif kind == "c":
            args = tuple(draw(coefficients) for _ in range(3))
        elif kind == "=" and pool:
            args = pool[-1][1].a, pool[-1][1].b, draw(coefficients)
        else:
            args = draw(wide_points), draw(wide_points)
        build = (Line, oracle.Line) if len(args) == 3 else (
            line_through, oracle.line_through)
        try:
            pair = tuple(f(*args) for f in build)
        except ValueError:
            continue
        if pair[0] not in (ours for ours, _ in pool):
            pool.append(pair)
    chosen = draw(st.permutations(pool))
    if pool and draw(st.integers(0, 9)) == 0:
        chosen.append(draw(st.sampled_from(pool)))
    return [ours for ours, _ in chosen], [theirs for _, theirs in chosen]


class TestIntegerLineAgainstOracle:
    """The integer Line and its functions are the Fraction Line of the
    oracle: equality, hash, repr, the a, b, c views, values, incidence,
    parallelism, meets and concurrency, or the same ValueError text."""

    @settings(max_examples=300, deadline=None)
    @given(coefficients, coefficients, coefficients, wide_points)
    def test_line(self, a, b, c, p):
        with _lowest_int_str_limit():
            line = _outcome(Line, a, b, c)
            assert line == _outcome(oracle.Line, a, b, c)
            if isinstance(line, tuple):
                return
            ours, theirs = Line(a, b, c), oracle.Line(a, b, c)
            assert hash(ours) == hash(theirs)
            assert (ours.a, ours.b, ours.c) == (theirs.a, theirs.b, theirs.c)
            assert ours.value_at(p) == theirs.value_at(p)
            assert ours.contains(p) == theirs.contains(p)
            assert math.gcd(*ours.triple) == 1 and ours.triple[:2] > (0, 0)

    @settings(max_examples=150, deadline=None)
    @given(line_families())
    @example(tuple([cls(10 ** 1000 - 7, 3, -1),
                    cls(F(1, 10 ** 1000 - 7), -10 ** 999, 5)]
                   for cls in (Line, oracle.Line)))
    def test_line_pairs_and_families(self, family):
        ours, theirs = family
        with _lowest_int_str_limit():
            for i in range(len(ours)):
                assert repr(ours[i]) == repr(theirs[i])
                for j in range(len(ours)):
                    assert (ours[i] == ours[j]) == (theirs[i] == theirs[j])
                    assert (ours[i].is_parallel_to(ours[j])
                            == theirs[i].is_parallel_to(theirs[j]))
                    assert (_outcome(intersect_lines, ours[i], ours[j])
                            == _outcome(oracle.intersect_lines, theirs[i],
                                        theirs[j]))
            assert (_outcome(are_concurrent, ours)
                    == _outcome(oracle.are_concurrent, theirs))

    @settings(max_examples=300, deadline=None)
    @given(wide_points, wide_points)
    def test_line_through(self, p, q):
        with _lowest_int_str_limit():
            assert (_outcome(line_through, p, q)
                    == _outcome(oracle.line_through, p, q))

    @pytest.mark.parametrize("ours, theirs, args", [
        (Line, oracle.Line, (0, 0, 1)),
        (line_through, oracle.line_through, (pt(2, 3), pt(2, 3))),
        (intersect_lines, oracle.intersect_lines, ("x = 0", "x = 1")),
        (intersect_lines, oracle.intersect_lines, ("x = 0", "2x = 0")),
        (are_concurrent, oracle.are_concurrent, (["x = 0", "2x = 0"],)),
        (are_concurrent, oracle.are_concurrent, (["x = 0"],)),
    ], ids=["zero-line", "coincident-points", "parallel", "coincident-lines",
            "duplicate-line", "single-line"])
    def test_same_error_text(self, ours, theirs, args):
        lines = {"x = 0": (1, 0, 0), "x = 1": (1, 0, -1), "2x = 0": (2, 0, 0)}

        def build(arg, cls):
            if isinstance(arg, list):
                return [build(a, cls) for a in arg]
            return cls(*lines[arg]) if arg in lines else arg

        got = _outcome(ours, *(build(a, Line) for a in args))
        assert got[0] == "ValueError"
        assert got == _outcome(theirs, *(build(a, oracle.Line) for a in args))
