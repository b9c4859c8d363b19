"""Rainbow subsets of edge-coloured complete k-hypergraphs.

Colourings whose monochromatic h-sunflowers are small admit large rainbow
subsets; this package builds such colourings exactly (geometry over rationals,
polynomials over Q and prime fields, Sidon differences), extracts rainbow
subsets by greedy, sample-and-delete and exact algorithms, and audits every
claim by brute force.
"""

from .algebra import (
    IntegerInstance,
    PolyGround,
    SymPoly,
    is_b2_sequence,
    poly_colouring,
    poly_prepare,
    sidon_colouring,
)
from .engine import (
    BenchRecord,
    ExponentFit,
    RainbowResult,
    SamplePlan,
    bench_trials,
    derive_seed,
    estimate_exponent,
    exact_max_rainbow,
    greedy_rainbow,
    sample_and_delete,
    verify_rainbow,
)
from .errors import BudgetError, DegenerateInputError, ParameterError, ValidationError
from .geometry import (
    PointInstance,
    check_no_hyperplane,
    check_no_sphere,
    circumradius_colouring,
    generate_general_position,
    similarity_canonical_form,
    similarity_colouring,
    squared_circumradius,
    squared_volume,
    volume_colouring,
)
from .hypergraph import (
    DEFAULT_BUDGET,
    Colouring,
    ColouringSpec,
    ConflictHypergraph,
    GroundSet,
    SunflowerReport,
    build_conflict_hypergraph,
    colour_classes,
    enumerate_ksubsets,
    max_monochromatic_sunflower,
    validate_lambda,
)
from .keys import canonical_key

__all__ = [
    "BenchRecord",
    "BudgetError",
    "Colouring",
    "ColouringSpec",
    "ConflictHypergraph",
    "DEFAULT_BUDGET",
    "DegenerateInputError",
    "ExponentFit",
    "GroundSet",
    "IntegerInstance",
    "ParameterError",
    "PointInstance",
    "PolyGround",
    "RainbowResult",
    "SamplePlan",
    "SunflowerReport",
    "SymPoly",
    "ValidationError",
    "bench_trials",
    "build_conflict_hypergraph",
    "canonical_key",
    "check_no_hyperplane",
    "check_no_sphere",
    "circumradius_colouring",
    "colour_classes",
    "derive_seed",
    "enumerate_ksubsets",
    "estimate_exponent",
    "exact_max_rainbow",
    "generate_general_position",
    "greedy_rainbow",
    "is_b2_sequence",
    "max_monochromatic_sunflower",
    "poly_colouring",
    "poly_prepare",
    "sample_and_delete",
    "sidon_colouring",
    "similarity_canonical_form",
    "similarity_colouring",
    "squared_circumradius",
    "squared_volume",
    "validate_lambda",
    "verify_rainbow",
    "volume_colouring",
]
