"""Seeded random configuration generators and batch verification.

Generators are pure functions of (params, trial): the per-trial RNG is
seeded from both, so any trial can be regenerated in isolation.
Degenerate draws are rejected and redrawn, never perturbed; a draw that
fails validation could mask a kernel bug if nudged onto a valid nearby
configuration.

Every kind runs through one rejection loop (`_draw`), which calls a
per-kind builder until it stops raising, and one batch loop (`_fuzz`),
which records each (check, expected, actual) a per-kind check yields
and builds the FuzzReport once, after the last trial.
"""

from __future__ import annotations

import copy
import random
import time
from fractions import Fraction

from .ceva import MAX_VERTICES, CevaConfig, ceva_product
from .circle import (
    InscribedConfig,
    chord_telescoping_squared,
    concurrent_secants_check,
    inscribed_identity_report,
    similar_triangles_relation,
)
from .configio import config_to_dict
from .errors import (
    DegenerateConfig,
    GenerationExhausted,
    InvariantViolation,
    Tangent,
)
from .frozen import Frozen
from .geometry import MAX_DIGITS, Point, format_rational


# Largest coordinate_bound: drawn parts then have at most MAX_DIGITS
# digits, so `verify` can parse every config a failure reports.
MAX_BOUND = 10 ** MAX_DIGITS - 1

# Most draws a trial rejects before it is skipped.
MAX_REJECTIONS = 2000


class GenParams(Frozen):
    """Knobs for the random generators.

    coordinate_bound limits both numerators and denominators of every
    drawn rational, and is at most MAX_BOUND.  n_max is at most
    ceva.MAX_VERTICES, the largest polygon a config takes.
    """

    _fields = ("seed", "n_min", "n_max", "coordinate_bound")
    seed: int
    n_min: int
    n_max: int
    coordinate_bound: int

    def __init__(self, seed: int = 0, n_min: int = 3, n_max: int = 7,
                 coordinate_bound: int = 10):
        if n_min < 3:
            raise ValueError(f"n_min must be at least 3, got {n_min}")
        if n_min > n_max:
            raise ValueError(f"n_min {n_min} exceeds n_max {n_max}")
        if n_max > MAX_VERTICES:
            raise ValueError(
                f"n_max must be at most {MAX_VERTICES}, got {n_max}")
        if coordinate_bound < 2:
            raise ValueError("coordinate_bound must be at least 2")
        if coordinate_bound > MAX_BOUND:
            raise ValueError(
                f"coordinate_bound must have at most {MAX_DIGITS} digits")
        Frozen.__init__(self, seed, n_min, n_max, coordinate_bound)


class FuzzFailure(Frozen):
    """One falsified identity, with enough context to reproduce it."""

    _fields = ("trial", "seed", "check", "expected", "actual", "config")
    trial: int
    seed: int
    check: str
    expected: str
    actual: str
    config: dict

    def to_dict(self) -> dict:
        """The fields as a plain dict; ``config`` is a deep copy."""
        doc = dict(zip(self._fields, self._values))
        doc["config"] = copy.deepcopy(self.config)
        return doc


class FuzzReport(Frozen):
    """Outcome of a batch of trials.

    failures is empty iff every completed trial satisfied its identity
    exactly; rejections counts resampled degenerate draws across all
    trials (trials whose sampling budget ran out are simply skipped and
    do not count as completed).  ``failures`` is a list, so a report is
    unhashable.
    """

    _fields = ("kind", "trials_requested", "trials_completed", "rejections",
               "failures", "elapsed_seconds")
    kind: str
    trials_requested: int
    trials_completed: int
    rejections: int
    failures: list[FuzzFailure]
    elapsed_seconds: float

    def to_dict(self) -> dict:
        """The fields as a plain dict; ``failures`` become dicts."""
        doc = dict(zip(self._fields, self._values))
        doc["failures"] = [f.to_dict() for f in self.failures]
        return doc


def _trial_rng(seed: int, trial: int) -> random.Random:
    # String seeding hashes via sha512 inside random.Random: stable
    # across processes and interpreter runs, unlike hash() of a tuple.
    return random.Random(f"{seed}:{trial}")


def _rand_rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _rand_point(rng: random.Random, bound: int) -> Point:
    """A point whose parts are drawn as x num, x den, y num, y den, the
    order `_rand_rational` draws two coordinates in."""
    randint = rng.randint
    return Point.from_parts(randint(-bound, bound), randint(1, bound),
                            randint(-bound, bound), randint(1, bound))


def _draw_shape(rng: random.Random, params: GenParams) -> tuple[int, int, int]:
    """n in [n_min, n_max] and a uniform (s, t) split with 2s + t = n."""
    n = rng.randint(params.n_min, params.n_max)
    s = rng.randint(1, (n - 1) // 2)
    return n, s, n - 2 * s


def _build_ceva(rng: random.Random, params: GenParams) -> CevaConfig:
    n, s, t = _draw_shape(rng, params)
    vertices = tuple(_rand_point(rng, params.coordinate_bound)
                     for _ in range(n))
    pivot = _rand_point(rng, params.coordinate_bound)
    return CevaConfig(vertices, pivot, s, t)


def _build_inscribed(rng: random.Random, params: GenParams,
                     concurrent: bool) -> InscribedConfig:
    bound = params.coordinate_bound
    n, s, t = _draw_shape(rng, params)
    radius = Fraction(rng.randint(1, bound), rng.randint(1, bound))
    # Parameters keyed by their (numerator, denominator) pairs, which
    # hash far faster than the Fractions.
    values: dict[tuple[int, int], Fraction] = {}
    for _ in range(64 * n):
        u = _rand_rational(rng, bound)
        values[u.numerator, u.denominator] = u
        if len(values) == n:
            break
    else:
        raise InvariantViolation(f"no {n} distinct parameters drawn")
    us = tuple(sorted(values.values()))
    if concurrent:
        specs: tuple = (_rand_point(rng, bound),) * n
    else:
        drawn: list[Fraction] = []
        for _ in range(n):
            for _ in range(64):
                v = _rand_rational(rng, bound)
                if (v.numerator, v.denominator) not in values:
                    drawn.append(v)
                    break
        if len(drawn) < n:
            raise InvariantViolation("no second parameters off the vertices")
        specs = tuple(drawn)
    return InscribedConfig(radius, us, specs, s, t)


def _draw(build, params: GenParams, trial: int, *args):
    """(config, rejections): the first of up to MAX_REJECTIONS + 1 draws
    ``build(rng, params, *args)`` from the trial's RNG that does not
    raise, with the number of draws rejected before it, or (None,
    MAX_REJECTIONS + 1) when every draw is rejected."""
    rng = _trial_rng(params.seed, trial)
    for rejections in range(MAX_REJECTIONS + 1):
        try:
            return build(rng, params, *args), rejections
        except (InvariantViolation, DegenerateConfig, Tangent):
            pass
    return None, MAX_REJECTIONS + 1


def _generate(build, what: str, params: GenParams, trial: int, *args):
    cfg, _ = _draw(build, params, trial, *args)
    if cfg is None:
        raise GenerationExhausted(
            f"no valid {what} config within {MAX_REJECTIONS} rejections")
    return cfg


def gen_ceva_config(params: GenParams, trial: int) -> CevaConfig:
    """Deterministic random polygon-with-pivot configuration."""
    return _generate(_build_ceva, "polygon", params, trial)


def gen_inscribed_config(params: GenParams, trial: int,
                         concurrent: bool = False) -> InscribedConfig:
    """Deterministic random inscribed configuration; with ``concurrent``
    every vertex line passes through one random common point."""
    return _generate(_build_inscribed, "inscribed", params, trial, concurrent)


def _ceva_checks(cfg: CevaConfig):
    result = ceva_product(cfg)
    if not result.holds:
        yield ("signed_product", format_rational(result.expected),
               format_rational(result.product))


def _inscribed_checks(cfg: InscribedConfig):
    concurrent = cfg.common_point is not None
    if concurrent:
        result = concurrent_secants_check(cfg)
    else:
        result = inscribed_identity_report(cfg)
    if result.lhs_squared != result.rhs_squared:
        yield ("squared_identity", format_rational(result.rhs_squared),
               format_rational(result.lhs_squared))
    telescoped = chord_telescoping_squared(cfg)
    if telescoped != 1:
        yield "chord_telescoping", "1", format_rational(telescoped)
    for i in range(1, cfg.n + 1):
        if not similar_triangles_relation(cfg, i):
            yield f"similar_triangles[{i}]", "equal", "unequal"
    if concurrent and (result.lhs != result.expected
                       or result.rhs_squared != 1):
        yield ("concurrent_sign", f"{format_rational(result.expected)} and 1",
               f"{format_rational(result.lhs)} and "
               f"{format_rational(result.rhs_squared)}")


def _fuzz(kind: str, params: GenParams, trials: int, build, checks,
          *args) -> FuzzReport:
    """Draw each trial's config with ``build(rng, params, *args)`` and
    record every (check, expected, actual) that ``checks(cfg)`` yields."""
    start = time.perf_counter()
    completed = rejections = 0
    failures: list[FuzzFailure] = []
    for trial in range(trials):
        cfg, rejected = _draw(build, params, trial, *args)
        rejections += rejected
        if cfg is None:
            continue
        completed += 1
        found = list(checks(cfg))
        if found:
            doc = config_to_dict(cfg)
            failures += [FuzzFailure(trial, params.seed, *failure, doc)
                         for failure in found]
    return FuzzReport(kind, trials, completed, rejections, failures,
                      time.perf_counter() - start)


def fuzz_ceva(params: GenParams, trials: int) -> FuzzReport:
    """Check the (-1)^n product identity on random polygon configs."""
    return _fuzz("ceva", params, trials, _build_ceva, _ceva_checks)


def fuzz_inscribed(params: GenParams, trials: int,
                   concurrent: bool = False) -> FuzzReport:
    """Check the inscribed squared identity plus its supporting facts on
    random configs; with ``concurrent`` also pin the sign and the chord
    magnitude."""
    kind = "concurrent" if concurrent else "inscribed"
    return _fuzz(kind, params, trials, _build_inscribed, _inscribed_checks,
                 concurrent)
