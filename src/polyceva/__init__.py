"""polyceva: exact rational verification of cevian product identities.

The kernel (`geometry`) does exact planar geometry over Fractions; the
engines (`ceva`, `circle`) compute the polygon product identities and
check them by exact equality; `fuzz` generates seeded random instances;
`cli` wires everything to config files and reports.
"""

from .errors import (
    AxisAligned,
    CoincidentLines,
    CoincidesWithDenominatorEnd,
    ConfigError,
    DegenerateConfig,
    DivisionByZero,
    DuplicateLines,
    GenerationExhausted,
    GeometryError,
    IdenticalPoints,
    InvalidRational,
    InvariantViolation,
    MalformedJson,
    NotCollinear,
    NotConcurrent,
    ParallelLines,
    Tangent,
)
from .geometry import (
    AffineMap,
    Line,
    Point,
    Rational,
    affine_apply,
    are_concurrent,
    as_rational,
    directed_ratio,
    distance_squared,
    format_rational,
    homogeneous,
    intersect_lines,
    is_collinear,
    line_through,
    parse_rational,
    point_from_ratio,
    signed_area2,
)
from .ceva import (
    CevaConfig,
    Counterexample,
    Factor,
    ProductReport,
    all_sides_product,
    build_converse_counterexample,
    ceva_product,
    cevian_intersection,
    classic_ceva_product,
    idx_shift,
    line_value_antisymmetry,
    normalized_line_value,
    opposite_vertex_product,
    side_factors,
    sides_hit,
)
from .circle import (
    InscribedConfig,
    InscribedReport,
    SecondParam,
    ThroughPoint,
    chord_telescoping_squared,
    circle_point,
    concurrent_secants_check,
    inscribed_chord_product_squared,
    inscribed_identity_report,
    inscribed_opposite_side_check,
    inscribed_side_product,
    second_intersection,
    second_points,
    similar_triangles_relation,
    vertex_lines,
)
from .fuzz import (
    FuzzFailure,
    FuzzReport,
    GenParams,
    fuzz_ceva,
    fuzz_inscribed,
    gen_ceva_config,
    gen_inscribed_config,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
