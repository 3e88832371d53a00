"""Seeded random configuration generators and batch verification.

Generators are pure functions of (params, trial): the per-trial RNG is
seeded from both, so any trial can be regenerated in isolation.
Degenerate draws are rejected and redrawn, never perturbed; a draw that
fails validation could mask a kernel bug if nudged onto a valid nearby
configuration.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
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
from .geometry import Point, format_rational


@dataclass(frozen=True)
class GenParams:
    """Knobs for the random generators.

    coordinate_bound limits both numerators and denominators of every
    drawn rational; max_rejections caps the resampling loop per trial.
    n_max is at most ceva.MAX_VERTICES, the largest polygon a config takes.
    """

    seed: int = 0
    n_min: int = 3
    n_max: int = 7
    coordinate_bound: int = 10
    max_rejections: int = 2000

    def __post_init__(self):
        if self.n_min < 3:
            raise ValueError(f"n_min must be at least 3, got {self.n_min}")
        if self.n_min > self.n_max:
            raise ValueError(f"n_min {self.n_min} exceeds n_max {self.n_max}")
        if self.n_max > MAX_VERTICES:
            raise ValueError(
                f"n_max must be at most {MAX_VERTICES}, got {self.n_max}")
        if self.coordinate_bound < 2:
            raise ValueError("coordinate_bound must be at least 2")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be positive")


@dataclass(frozen=True)
class FuzzFailure:
    """One falsified identity, with enough context to reproduce it."""

    trial: int
    seed: int
    check: str
    expected: str
    actual: str
    config: dict


@dataclass
class FuzzReport:
    """Outcome of a batch of trials.

    failures is empty iff every completed trial satisfied its identity
    exactly; rejections counts resampled degenerate draws across all
    trials (trials whose sampling budget ran out are simply skipped and
    do not count as completed).
    """

    kind: str
    trials_requested: int
    trials_completed: int
    rejections: int
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


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

        result = inscribed_identity_report(cfg)
        if not result.holds:
            fail("squared_identity", format_rational(result.rhs_squared),
                 format_rational(result.lhs_squared))
        telescoped = chord_telescoping_squared(cfg)
        if telescoped != 1:
            fail("chord_telescoping", "1", format_rational(telescoped))
        for i in range(1, cfg.n + 1):
            if not similar_triangles_relation(cfg, i):
                fail(f"similar_triangles[{i}]", "equal", "unequal")
        if concurrent:
            pinned = concurrent_secants_check(cfg)
            if not pinned.holds:
                fail("concurrent_sign",
                     f"{format_rational(Fraction(-1) ** cfg.n)} and 1",
                     f"{format_rational(pinned.lhs)} and "
                     f"{format_rational(pinned.rhs_squared)}")
    report.elapsed_seconds = time.perf_counter() - start
    return report
