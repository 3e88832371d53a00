"""Cevian product identities over an n-gon with a pivot point.

Setup: vertices A_1..A_n (1-based, cyclic), a pivot M, and parameters
s, t >= 1 with 2s + t = n.  The line through A_i and M crosses the t
consecutive side-lines A_j A_{j+1} for j = i+s .. i+s+t-1 (indices mod
n); each crossing M_ij contributes the signed ratio M_ij A_j / M_ij
A_{j+1}.  The product of all n*t ratios is exactly (-1)^n, which this
module computes and checks with exact rational arithmetic.  The n = 3,
s = t = 1 case is Ceva's classical theorem.  Every ratio, here and in
the inscribed engine, comes from one area-ratio kernel, `side_factors`.

The converse fails: `build_converse_counterexample` constructs, for any
pentagon in general position, five cevians whose ratio product is -1
even though the lines are not concurrent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DegenerateConfig, InvariantViolation
from .frozen import Frozen
from .geometry import (
    Homogeneous,
    Point,
    Line,
    are_concurrent,
    homogeneous,
    line_through,
    point_from_ratio,
)


def sides_hit(i: int, s: int, t: int, n: int) -> list[int]:
    """Side indices j whose line A_j A_{j+1} is crossed by the cevian at A_i.

    These are the t consecutive sides starting at j = i + s.
    """
    if 2 * s + t != n:
        raise ValueError(f"need 2s + t = n, got s={s}, t={t}, n={n}")
    # Vertex i shifted cyclically by s + d per side, i itself checked
    # once, and only when there is a side.
    if t > 0 and not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    return [(i - 1 + s + d) % n + 1 for d in range(t)]


# Most vertices a config may have.  A config computes up to n*(n-2) side
# factors, so the limit bounds the work one input can ask for.
MAX_VERTICES = 256


# (-1)^n by the parity of n, as PARITY_SIGNS[n % 2].
PARITY_SIGNS = (Fraction(1), Fraction(-1))


def validate_split(n: int, s: int, t: int) -> None:
    """Raise InvariantViolation unless 3 <= n <= MAX_VERTICES, s, t >= 1
    and 2s + t = n."""
    if n < 3:
        raise InvariantViolation(f"polygon needs at least 3 vertices, got {n}")
    if n > MAX_VERTICES:
        raise InvariantViolation(
            f"polygon has at most {MAX_VERTICES} vertices, got {n}")
    if s < 1 or t < 1:
        raise InvariantViolation(f"s and t must be positive, got s={s}, t={t}")
    if 2 * s + t != n:
        raise InvariantViolation(f"2s + t = n violated: s={s}, t={t}, n={n}")


class CevaConfig(Frozen):
    """An n-gon, a pivot, and an (s, t) split with 2s + t = n.

    Construction validates both the structural invariants (distinct
    vertices, pivot off the vertex set, valid split) and general
    position: every required cevian-side crossing must exist and avoid
    the side's endpoints.  The n*t ratios are computed once, by that
    check, and kept in ``factors``, which repr, == and hash leave out:
    vertex i's t ratios, in sides_hit order, are factors[(i-1)*t : i*t].
    """

    _fields = ("vertices", "pivot", "s", "t")
    vertices: tuple[Point, ...]
    pivot: Point
    s: int
    t: int
    factors: tuple[Factor, ...]

    def __init__(self, vertices: Sequence[Point], pivot: Point, s: int, t: int):
        vertices = tuple(vertices)
        n = len(vertices)
        validate_split(n, s, t)
        triples, m = _polygon_triples(vertices, pivot)
        Frozen.__init__(self, vertices, pivot, s, t)
        factors = []
        for i in range(1, n + 1):
            factors += side_factors(triples, i, m, s, t)
        self.__dict__["factors"] = tuple(factors)

    @property
    def n(self) -> int:
        return len(self.vertices)


def _polygon_triples(vertices: tuple[Point, ...], pivot: Point
                     ) -> tuple[list[Homogeneous], Homogeneous]:
    """Homogeneous triples of the vertices and of the pivot, once the
    vertices are checked pairwise distinct and the pivot off them.

    The triples are canonical (least W, gcd(X, Y, W) = 1), so two points
    are equal exactly when their triples are: both checks compare the
    triples' ints and hash no Fraction."""
    triples = [homogeneous(v) for v in vertices]
    distinct = set(triples)
    if len(distinct) != len(triples):
        raise InvariantViolation("vertices must be pairwise distinct")
    m = homogeneous(pivot)
    if m in distinct:
        raise InvariantViolation("pivot coincides with a vertex")
    return triples, m


class Factor(Frozen):
    """One ratio of the product: cevian vertex i, side j, signed value.

    The value is held as its canonical integer pair ``num``/``den``
    (gcd 1, den > 0); ``value`` builds the Fraction from it on each
    access.  repr, == and hash read ``value``, so they are those of the
    Fraction."""

    _fields = ("i", "j", "value")
    i: int
    j: int
    num: int
    den: int

    # Stores the value's pair, not the Fraction.  The kernel builds its
    # factors from their integer pairs, so only callers holding a
    # Fraction use this.
    def __init__(self, i: int, j: int, value: Fraction):
        d = self.__dict__
        d["i"] = i
        d["j"] = j
        d["num"] = value.numerator
        d["den"] = value.denominator

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


class ProductReport(Frozen):
    """Factored product with its expected value and the exact verdict."""

    _fields = ("factors", "product", "expected", "holds")
    factors: tuple[Factor, ...]
    product: Fraction
    expected: Fraction
    holds: bool

    @staticmethod
    def from_factors(factors: Sequence[Factor], expected: Fraction) -> "ProductReport":
        """The report on the factors' product, decided by cross-multiplying
        its integer pair with ``expected``; a product that differs is
        reduced once, for output."""
        num, den = factor_product(factors)
        holds = num * expected.denominator == expected.numerator * den
        product = expected if holds else Fraction(num, den)
        return ProductReport(tuple(factors), product, expected, holds)


def factor_product(factors: Sequence[Factor]) -> tuple[int, int]:
    """The product of the factors' values as an integer pair (num, den),
    den > 0, not reduced.

    Each run of consecutive factors with the same vertex i is multiplied
    as reduced pairs, cancelling across (gcd(a, d) and gcd(c, b) for
    a/b * c/d): one vertex line's ratios telescope, so the pair stays
    small.  The runs' pairs are then multiplied in a balanced tree of
    plain ints, with no gcd.
    """
    runs = []
    vertex = c = d = None  # the open run: vertex i and its pair c/d
    for f in factors:
        if f.i == vertex:
            a, b = f.num, f.den
            g = math.gcd(a, d)
            h = math.gcd(c, b)
            c, d = (a // g) * (c // h), (b // h) * (d // g)
        else:
            if vertex is not None:
                runs.append((c, d))
            vertex, c, d = f.i, f.num, f.den
    if vertex is not None:
        runs.append((c, d))
    while len(runs) > 1:
        paired = [(a * c, b * d)
                  for (a, b), (c, d) in zip(runs[::2], runs[1::2])]
        if len(runs) % 2:
            paired.append(runs[-1])
        runs = paired
    return runs[0] if runs else (1, 1)


def side_factors(vertices: Sequence[Homogeneous], i: int,
                 point: Homogeneous, s: int, t: int) -> list[Factor]:
    """Signed side ratios of one vertex line, by the area principle.

    The line through vertex A_i (vertices[i-1]) and a second point P
    crosses side-line A_j A_{j+1} at M_ij with

        M_ij A_j / M_ij A_{j+1} = [A_i P A_j] / [A_i P A_{j+1}],

    [.] being signed area: the signed distances of A_j and A_{j+1}
    from the line scale like their directed distances from M_ij.  Equal
    areas mean the line is parallel to (or is) the side-line; a zero
    area means the crossing is a side endpoint.  Both raise
    DegenerateConfig.  The t factors come in side order, j = i + s, ...,
    i + s + t - 1 (mod n), the sides sides_hit lists.  Raises ValueError
    unless s, t >= 1, 2s + t = n and 1 <= i <= n.

    Points are given as integer homogeneous triples (X, Y, W), x = X/W
    and y = Y/W, at any scale with W > 0 (geometry.homogeneous gives the
    least one), and the areas are computed in integers: the cross
    product (a, b, c) of A_i and P takes the value a*X_V + b*Y_V +
    c*W_V = W_A W_P W_V [A_i P V] at V, a positive multiple of the
    area.  The line is evaluated once at each of the t + 1 endpoints of
    its sides, walking them with a wrapping index, each side's far
    endpoint being the next one's near endpoint.  A factor is the one
    quotient (near * W_far) / (far * W_near), which no triple's scale
    changes, reduced to lowest terms with one gcd and no Fraction.
    """
    n = len(vertices)
    if s < 1 or t < 1 or 2 * s + t != n:
        raise ValueError(f"need s, t >= 1 and 2s + t = n, got s={s}, t={t}, n={n}")
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    x_p, y_p, w_p = point
    x_a, y_a, w_a = vertices[i - 1]
    a = y_a * w_p - w_a * y_p
    b = w_a * x_p - x_a * w_p
    c = x_a * y_p - y_a * x_p
    k = (i - 1 + s) % n  # vertices[k] is the near endpoint of side k + 1
    x, y, w_near = vertices[k]
    near = a * x + b * y + c * w_near
    factors = []
    for _ in range(t):
        j = k + 1
        k = j if j < n else 0
        x, y, w_far = vertices[k]
        far = a * x + b * y + c * w_far
        num = near * w_far
        den = far * w_near
        if num == den:
            raise DegenerateConfig(DegenerateConfig.PARALLEL, i, j,
                                   "vertex line is parallel to the side-line")
        if near == 0 or far == 0:
            raise DegenerateConfig(DegenerateConfig.HITS_VERTEX, i, j,
                                   "crossing lands on a side endpoint")
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        f = object.__new__(Factor)
        d = f.__dict__
        d["i"] = i
        d["j"] = j
        d["num"] = num // g
        d["den"] = den // g
        factors.append(f)
        near, w_near = far, w_far
    return factors


def crossing_point(vertices: Sequence[Point], factor: Factor) -> Point:
    """The crossing M_ij on side-line A_j A_{j+1} that a factor measures."""
    j = factor.j
    return point_from_ratio(vertices[j - 1], vertices[j % len(vertices)],
                            factor.value)


def ceva_product(cfg: CevaConfig) -> ProductReport:
    """The full signed ratio product over all n*t cevian crossings.

    Equals (-1)^n exactly for every valid configuration.
    """
    return ProductReport.from_factors(cfg.factors, PARITY_SIGNS[cfg.n % 2])


def classic_ceva_product(triangle: Sequence[Point], pivot: Point) -> ProductReport:
    """Ceva's theorem: the three cevians of a triangle through one point
    cut the opposite sides in ratios whose product is exactly -1."""
    if len(triangle) != 3:
        raise InvariantViolation("classic case needs exactly 3 vertices")
    return ceva_product(CevaConfig(tuple(triangle), pivot, 1, 1))


def opposite_vertex_product(polygon: Sequence[Point], pivot: Point) -> ProductReport:
    """Odd n-gon, one crossing per side: each side-line A_i A_{i+1} is cut
    at M_i by the line joining the pivot to the opposite vertex.

    The product of the n ratios M_i A_i / M_i A_{i+1} is exactly -1.
    Factors are listed in side order, so factors[i-1] is the ratio on
    side i.  This is the s = (n-1)/2, t = 1 case of `ceva_product`.
    """
    n = len(polygon)
    if n % 2 == 0:
        raise InvariantViolation(f"needs an odd number of vertices, got {n}")
    report = ceva_product(CevaConfig(tuple(polygon), pivot, (n - 1) // 2, 1))
    by_side = sorted(report.factors, key=lambda f: f.j)
    return ProductReport(tuple(by_side), report.product, report.expected,
                         report.holds)


def all_sides_product(polygon: Sequence[Point], pivot: Point) -> ProductReport:
    """Every cevian crosses every side not touching its own vertex:
    the s = 1, t = n - 2 case.  Product is (-1)^n."""
    n = len(polygon)
    return ceva_product(CevaConfig(tuple(polygon), pivot, 1, n - 2))


class Counterexample(Frozen):
    """Five cevians of a pentagon with ratio product -1 yet not concurrent.

    meet_points[i-1] is M_i on side-line A_i A_{i+1} and ratios[i-1] its
    signed ratio; cevians[i-1] is the line drawn through vertex A_i.
    """

    _fields = ("vertices", "pivot", "cevians", "meet_points", "ratios", "K",
               "branch", "product", "concurrent")
    vertices: tuple[Point, ...]
    pivot: Point
    cevians: tuple[Line, ...]
    meet_points: tuple[Point, ...]
    ratios: tuple[Fraction, ...]
    K: Fraction
    branch: str
    product: Fraction
    concurrent: bool

    @property
    def holds(self) -> bool:
        """The refutation: ratio product -1, yet the cevians not concurrent."""
        return self.product == -1 and not self.concurrent


def build_converse_counterexample(pentagon: Sequence[Point],
                                  pivot: Point) -> Counterexample:
    """Constructively refute the converse of the product identity.

    The cevians from A_1, A_2, A_3 through the pivot meet the side-lines
    A_3A_4, A_4A_5, A_5A_1 at M_3, M_4, M_5; call the product of their
    three ratios K.  M_1 is then placed on line A_1A_2 at ratio 1/K, or
    at 2/K when the line A_4 M_1 would pass through the pivot, and M_2
    on line A_2A_3 at ratio -1 or -1/2 respectively.  The five ratios
    multiply to exactly -1 by construction, while A_4 M_1 misses the
    pivot, so the five cevians A_1M_3, A_2M_4, A_3M_5, A_4M_1, A_5M_2
    cannot share a point.  The construction is deterministic.
    """
    if len(pentagon) != 5:
        raise InvariantViolation("counterexample needs exactly 5 vertices")
    vertices = tuple(pentagon)
    a1, a2, a3, a4, a5 = vertices
    triples, m = _polygon_triples(vertices, pivot)

    # The three genuine cevians: vertex i cuts side i + 2.
    genuine = [side_factors(triples, i, m, 2, 1)[0] for i in (1, 2, 3)]
    k_value = Fraction(*factor_product(genuine))

    # Branch choice: ratio 1/K unless the resulting A_4 M_1 hits the pivot
    # (or the ratio degenerates); then 2/K with the compensating -1/2.
    for branch, r1, r2 in (("1/K", 1 / k_value, Fraction(-1)),
                           ("2/K", 2 / k_value, Fraction(-1, 2))):
        if r1 == 1:
            continue
        m1 = point_from_ratio(a1, a2, r1)
        if m1.triple == a4.triple:
            continue
        line_a4_m1 = line_through(a4, m1)
        if not line_a4_m1.contains(pivot):
            break
    else:
        raise DegenerateConfig(
            DegenerateConfig.HITS_VERTEX, detail="both ratio branches degenerate")

    m2 = point_from_ratio(a2, a3, r2)
    if m2.triple == a5.triple:
        raise DegenerateConfig(
            DegenerateConfig.HITS_VERTEX,
            detail="compensating point coincides with vertex 5")

    meet_points = (m1, m2, *(crossing_point(vertices, f) for f in genuine))
    ratios = (r1, r2, *(f.value for f in genuine))
    product = r1 * r2 * k_value
    assert product == -1

    # The first three cevians pass through the pivot by construction.
    cevians = (line_through(a1, pivot),
               line_through(a2, pivot),
               line_through(a3, pivot),
               line_a4_m1,
               line_through(a5, m2))
    try:
        concurrent = are_concurrent(cevians)
    except ValueError as exc:
        # Of five lines, only a duplicate makes are_concurrent raise.
        raise DegenerateConfig(DegenerateConfig.PARALLEL,
                               detail="two cevians coincide") from exc
    return Counterexample(vertices, pivot, cevians, meet_points, ratios,
                          k_value, branch, product, concurrent)
