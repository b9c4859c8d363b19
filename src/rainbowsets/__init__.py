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
    poly_colouring,
    poly_prepare,
    sidon_colouring,
)
from .engine import (
    ExponentFit,
    RainbowResult,
    SamplePlan,
    derive_seed,
    estimate_exponent,
    exact_max_rainbow,
    greedy_rainbow,
    sample_and_delete,
    verify_rainbow,
)
from .errors import BudgetError, ParameterError, ValidationError
from .geometry import (
    PointInstance,
    circumradius_colouring,
    generate_general_position,
    similarity_colouring,
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
    max_monochromatic_sunflower,
    validate_lambda,
)

__all__ = [
    "BudgetError",
    "Colouring",
    "ColouringSpec",
    "ConflictHypergraph",
    "DEFAULT_BUDGET",
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
    "build_conflict_hypergraph",
    "circumradius_colouring",
    "colour_classes",
    "derive_seed",
    "estimate_exponent",
    "exact_max_rainbow",
    "generate_general_position",
    "greedy_rainbow",
    "max_monochromatic_sunflower",
    "poly_colouring",
    "poly_prepare",
    "sample_and_delete",
    "sidon_colouring",
    "similarity_colouring",
    "validate_lambda",
    "verify_rainbow",
    "volume_colouring",
]
