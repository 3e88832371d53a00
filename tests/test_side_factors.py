"""The area-principle kernel against the exact crossing-point oracle.

Raw seeded draws, degenerate ones included, go through both; every
factor, every DegenerateConfig (reason, i, j) and every Tangent must
agree.  Draws that fail a structural invariant are skipped: they never
reach either side-ratio computation.
"""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from polyceva.ceva import CevaConfig, side_factors
from polyceva.circle import InscribedConfig, SecondParam, ThroughPoint
from polyceva.errors import DegenerateConfig, InvariantViolation, Tangent
from polyceva.geometry import Point

from _exact_oracle import ceva_factors, inscribed_factors

# Bound 2 draws are cheap and mostly degenerate, so take more of them.
DRAWS = {2: 600, 10: 200}


def _rational(rng, bound):
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def _point(rng, bound):
    return Point(_rational(rng, bound), _rational(rng, bound))


def _shape(rng, n_max):
    n = rng.randint(3, n_max)
    s = rng.randint(1, (n - 1) // 2)
    return n, s, n - 2 * s


def _outcome(fn, *args):
    """The computed value, or the failure as a tuple led by its kind."""
    try:
        return fn(*args)
    except DegenerateConfig as exc:
        return ("degenerate", exc.reason, exc.i, exc.j)
    except Tangent as exc:
        return ("tangent", str(exc))


def _ceva_draw(rng, bound):
    n, s, t = _shape(rng, 9)
    return (tuple(_point(rng, bound) for _ in range(n)), _point(rng, bound),
            s, t)


def _inscribed_draw(rng, bound, concurrent):
    pool = sorted({F(p, q) for p in range(-bound, bound + 1)
                   for q in range(1, bound + 1)})
    n, s, t = _shape(rng, min(7, len(pool) - 1))
    radius = F(rng.randint(1, bound), rng.randint(1, bound))
    params = tuple(sorted(rng.sample(pool, n)))
    if concurrent:
        specs = (ThroughPoint(_point(rng, bound)),) * n
    else:
        others = [u for u in pool if u not in params]
        specs = tuple(ThroughPoint(_point(rng, bound)) if rng.random() < 0.3
                      else SecondParam(rng.choice(others)) for _ in range(n))
    return radius, params, specs, s, t


def _tally(seen, outcome):
    seen[outcome[0] if isinstance(outcome[0], str) else "valid"] += 1


@pytest.mark.parametrize("bound", [2, 10])
def test_ceva_kernel_matches_oracle(bound):
    rng = random.Random(f"ceva-oracle:{bound}")
    seen = Counter()
    for _ in range(DRAWS[bound]):
        vertices, pivot, s, t = _ceva_draw(rng, bound)
        try:
            kernel = _outcome(lambda: CevaConfig(vertices, pivot, s, t).factors)
        except InvariantViolation:
            continue
        assert kernel == _outcome(ceva_factors, vertices, pivot, s, t)
        assert kernel == _outcome(side_factors, vertices, [pivot] * len(vertices),
                                  s, t)
        _tally(seen, kernel)
    assert seen["valid"] > 20 and seen["degenerate"] > 0


@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["inscribed", "concurrent"])
@pytest.mark.parametrize("bound", [2, 10])
def test_inscribed_kernel_matches_oracle(bound, concurrent):
    rng = random.Random(f"inscribed-oracle:{bound}:{concurrent}")
    seen = Counter()
    for _ in range(DRAWS[bound] // 2):
        draw = _inscribed_draw(rng, bound, concurrent)

        def build():
            cfg = InscribedConfig(*draw)
            return cfg.factors, cfg.m_primes

        try:
            kernel = _outcome(build)
        except InvariantViolation:
            continue
        assert kernel == _outcome(inscribed_factors, *draw)
        _tally(seen, kernel)
    assert seen["valid"] > 10
    if bound == 2:  # degeneracy is rare at bound 10
        assert seen["degenerate"] > 0 and seen["tangent"] > 0
