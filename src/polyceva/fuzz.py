"""Seeded random configuration generators and batch verification.

Generators are pure functions of (params, trial): the per-trial RNG is
seeded from both, so any trial can be regenerated in isolation.
Degenerate draws are rejected and redrawn, never perturbed; a draw that
fails validation could mask a kernel bug if nudged onto a valid nearby
configuration.
"""

from __future__ import annotations

import copy
import random
import time
from fractions import Fraction

from .ceva import MAX_VERTICES, CevaConfig, ceva_product
from .circle import (
    InscribedConfig,
    SecondParam,
    ThroughPoint,
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


class GenParams(Frozen):
    """Knobs for the random generators.

    coordinate_bound limits both numerators and denominators of every
    drawn rational, and is at most MAX_BOUND; max_rejections caps the
    resampling loop per trial.  n_max is at most ceva.MAX_VERTICES, the
    largest polygon a config takes.
    """

    _fields = ("seed", "n_min", "n_max", "coordinate_bound", "max_rejections")
    seed: int
    n_min: int
    n_max: int
    coordinate_bound: int
    max_rejections: int

    def __init__(self, seed: int = 0, n_min: int = 3, n_max: int = 7,
                 coordinate_bound: int = 10, max_rejections: int = 2000):
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
        if max_rejections < 1:
            raise ValueError("max_rejections must be positive")
        d = self.__dict__
        d["seed"] = seed
        d["n_min"] = n_min
        d["n_max"] = n_max
        d["coordinate_bound"] = coordinate_bound
        d["max_rejections"] = max_rejections


class FuzzFailure(Frozen):
    """One falsified identity, with enough context to reproduce it."""

    _fields = ("trial", "seed", "check", "expected", "actual", "config")
    trial: int
    seed: int
    check: str
    expected: str
    actual: str
    config: dict

    def __init__(self, trial: int, seed: int, check: str, expected: str,
                 actual: str, config: dict):
        self.__dict__.update(zip(self._fields, (
            trial, seed, check, expected, actual, config)))

    def to_dict(self) -> dict:
        """The fields as a plain dict; ``config`` is a deep copy."""
        return {"trial": self.trial, "seed": self.seed, "check": self.check,
                "expected": self.expected, "actual": self.actual,
                "config": copy.deepcopy(self.config)}


class FuzzReport(Frozen):
    """Outcome of a batch of trials.

    failures is empty iff every completed trial satisfied its identity
    exactly; rejections counts resampled degenerate draws across all
    trials (trials whose sampling budget ran out are simply skipped and
    do not count as completed).
    """

    _fields = ("kind", "trials_requested", "trials_completed", "rejections",
               "failures", "elapsed_seconds")
    kind: str
    trials_requested: int
    trials_completed: int
    rejections: int
    failures: list[FuzzFailure]
    elapsed_seconds: float

    # A report is filled in while its trials run: unlike the other value
    # classes it is mutable, and so unhashable.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, kind: str, trials_requested: int, trials_completed: int,
                 rejections: int, failures: list[FuzzFailure] | None = None,
                 elapsed_seconds: float = 0.0):
        self.kind = kind
        self.trials_requested = trials_requested
        self.trials_completed = trials_completed
        self.rejections = rejections
        self.failures = [] if failures is None else failures
        self.elapsed_seconds = elapsed_seconds

    def to_dict(self) -> dict:
        return {"kind": self.kind, "trials_requested": self.trials_requested,
                "trials_completed": self.trials_completed,
                "rejections": self.rejections,
                "failures": [f.to_dict() for f in self.failures],
                "elapsed_seconds": self.elapsed_seconds}


def _trial_rng(seed: int, trial: int) -> random.Random:
    # String seeding hashes via sha512 inside random.Random: stable
    # across processes and interpreter runs, unlike hash() of a tuple.
    return random.Random(f"{seed}:{trial}")


def _rand_rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _rand_point(rng: random.Random, bound: int) -> Point:
    return Point(_rand_rational(rng, bound), _rand_rational(rng, bound))


def _draw_shape(rng: random.Random, params: GenParams) -> tuple[int, int, int]:
    """n in [n_min, n_max] and a uniform (s, t) split with 2s + t = n."""
    n = rng.randint(params.n_min, params.n_max)
    s = rng.randint(1, (n - 1) // 2)
    return n, s, n - 2 * s


def _gen_ceva(params: GenParams, trial: int) -> tuple[CevaConfig | None, int]:
    rng = _trial_rng(params.seed, trial)
    rejections = 0
    for _ in range(params.max_rejections + 1):
        n, s, t = _draw_shape(rng, params)
        vertices = tuple(_rand_point(rng, params.coordinate_bound)
                         for _ in range(n))
        pivot = _rand_point(rng, params.coordinate_bound)
        try:
            return CevaConfig(vertices, pivot, s, t), rejections
        except (InvariantViolation, DegenerateConfig):
            rejections += 1
    return None, rejections


def gen_ceva_config(params: GenParams, trial: int) -> CevaConfig:
    """Deterministic random polygon-with-pivot configuration."""
    cfg, _ = _gen_ceva(params, trial)
    if cfg is None:
        raise GenerationExhausted(
            f"no valid polygon config within {params.max_rejections} rejections")
    return cfg


def _gen_inscribed(params: GenParams, trial: int,
                   concurrent: bool = False) -> tuple[InscribedConfig | None, int]:
    rng = _trial_rng(params.seed, trial)
    bound = params.coordinate_bound
    rejections = 0
    for _ in range(params.max_rejections + 1):
        n, s, t = _draw_shape(rng, params)
        radius = Fraction(rng.randint(1, bound), rng.randint(1, bound))
        values: set[Fraction] = set()
        for _ in range(64 * n):
            values.add(_rand_rational(rng, bound))
            if len(values) == n:
                break
        if len(values) < n:
            rejections += 1
            continue
        us = tuple(sorted(values))
        if concurrent:
            specs: tuple = tuple([ThroughPoint(_rand_point(rng, bound))] * n)
        else:
            drawn: list[SecondParam] = []
            for _ in range(n):
                for _ in range(64):
                    v = _rand_rational(rng, bound)
                    if v not in values:
                        drawn.append(SecondParam(v))
                        break
            if len(drawn) < n:
                rejections += 1
                continue
            specs = tuple(drawn)
        try:
            return InscribedConfig(radius, us, specs, s, t), rejections
        except (InvariantViolation, DegenerateConfig, Tangent):
            rejections += 1
    return None, rejections


def gen_inscribed_config(params: GenParams, trial: int,
                         concurrent: bool = False) -> InscribedConfig:
    """Deterministic random inscribed configuration; with ``concurrent``
    every vertex line passes through one random common point."""
    cfg, _ = _gen_inscribed(params, trial, concurrent)
    if cfg is None:
        raise GenerationExhausted(
            f"no valid inscribed config within {params.max_rejections} rejections")
    return cfg


def fuzz_ceva(params: GenParams, trials: int) -> FuzzReport:
    """Check the (-1)^n product identity on random polygon configs."""
    start = time.perf_counter()
    report = FuzzReport("ceva", trials, 0, 0)
    for trial in range(trials):
        cfg, rej = _gen_ceva(params, trial)
        report.rejections += rej
        if cfg is None:
            continue
        report.trials_completed += 1
        result = ceva_product(cfg)
        if not result.holds:
            report.failures.append(FuzzFailure(
                trial, params.seed, "signed_product",
                format_rational(result.expected),
                format_rational(result.product),
                config_to_dict(cfg)))
    report.elapsed_seconds = time.perf_counter() - start
    return report


def fuzz_inscribed(params: GenParams, trials: int,
                   concurrent: bool = False) -> FuzzReport:
    """Check the inscribed squared identity plus its supporting facts on
    random configs; with ``concurrent`` also pin the sign and the chord
    magnitude."""
    start = time.perf_counter()
    kind = "concurrent" if concurrent else "inscribed"
    report = FuzzReport(kind, trials, 0, 0)
    for trial in range(trials):
        cfg, rej = _gen_inscribed(params, trial, concurrent)
        report.rejections += rej
        if cfg is None:
            continue
        report.trials_completed += 1
        doc = None

        def fail(check: str, expected: str, actual: str) -> None:
            nonlocal doc
            if doc is None:
                doc = config_to_dict(cfg)
            report.failures.append(
                FuzzFailure(trial, params.seed, check, expected, actual, doc))

        if concurrent:
            result = concurrent_secants_check(cfg)
        else:
            result = inscribed_identity_report(cfg)
        if result.lhs_squared != result.rhs_squared:
            fail("squared_identity", format_rational(result.rhs_squared),
                 format_rational(result.lhs_squared))
        telescoped = chord_telescoping_squared(cfg)
        if telescoped != 1:
            fail("chord_telescoping", "1", format_rational(telescoped))
        for i in range(1, cfg.n + 1):
            if not similar_triangles_relation(cfg, i):
                fail(f"similar_triangles[{i}]", "equal", "unequal")
        if concurrent and not result.holds:
            fail("concurrent_sign", f"{format_rational(result.expected)} and 1",
                 f"{format_rational(result.lhs)} and "
                 f"{format_rational(result.rhs_squared)}")
    report.elapsed_seconds = time.perf_counter() - start
    return report
