"""Exception hierarchy for the kernel, the engines, and the config front end.

Two families: `GeometryError` covers everything the exact kernel and the
theorem engines can raise while computing; `ConfigError` covers malformed
input handed to the CLI.  The split matters because the CLI maps them to
different exit codes (degenerate geometry is 3, bad input is 2).
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for kernel and engine errors."""


class IdenticalPoints(GeometryError):
    """Two points expected to be distinct coincide."""


class ParallelLines(GeometryError):
    """Distinct parallel lines have no intersection point."""


class CoincidentLines(GeometryError):
    """The two lines are the same line (infinitely many intersections)."""


class CoincidesWithDenominatorEnd(GeometryError):
    """A point X on line AB at a directed ratio XA / XB has X = B: the
    denominator segment is zero."""


class DuplicateLines(GeometryError):
    """A concurrency test was given the same line twice."""


class Tangent(GeometryError):
    """The line touches the circle only at the known point."""


class NotConcurrent(GeometryError):
    """An operation requiring a common point for all vertex lines was
    given specs that do not share one."""


class DegenerateConfig(GeometryError):
    """A configuration violates general position.

    ``reason`` is one of the module constants below; ``i`` and ``j`` name
    the cevian vertex and side (1-based) that failed, when known.
    """

    PARALLEL = "parallel"
    HITS_VERTEX = "hits_vertex"

    def __init__(self, reason: str, i: int | None = None, j: int | None = None,
                 detail: str = ""):
        self.reason = reason
        self.i = i
        self.j = j
        where = ""
        if i is not None or j is not None:
            where = f" at (i={i}, j={j})"
        msg = f"degenerate configuration ({reason}){where}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class GenerationExhausted(GeometryError):
    """Rejection sampling gave up before finding a valid configuration."""


class ConfigError(Exception):
    """Base class for config-file and flag errors (CLI exit code 2)."""


class MalformedJson(ConfigError):
    """The input is not valid JSON."""


class InvalidRational(ConfigError):
    """A rational is not a string "p/q" or "p" of ASCII digits, p with an
    optional sign, or has a part over geometry.MAX_DIGITS digits or q = 0."""


class InvariantViolation(ConfigError):
    """A structural invariant of a configuration does not hold."""
