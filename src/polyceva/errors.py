"""Exception hierarchy for the kernel, the engines, and the config front end.

One family per CLI exit code:

- `ConfigError` and its subclasses: the input is malformed (exit 2).
- `GeometryError` and its subclasses: the input is degenerate (exit 3).
  These are `DegenerateConfig` and `Tangent`, plus `GenerationExhausted`,
  which only the generators raise, when every draw was degenerate.
- `ValueError` or `TypeError`: a helper was called outside its domain
  (two equal points for a line, parallel lines to intersect, a duplicate
  line in a concurrency test).  No command does that, and the CLI
  reports one as an internal error (exit 4).
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for degenerate-input errors (CLI exit code 3)."""


class Tangent(GeometryError):
    """The line touches the circle only at the known point."""


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
