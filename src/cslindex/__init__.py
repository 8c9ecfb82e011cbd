"""Exact coincidence indices of the hypercubic lattice Z^n."""

from .indices import (
    CoprimalityViolated,
    CrossCheckFailed,
    IndexReport,
    index_closed_form,
    index_coprime_product,
    index_fortes,
    index_reflection,
)
from .isometry import (
    NotOrthogonal,
    RationalIsometry,
    ReflectionAxis,
    compose,
    from_rational_matrix,
    identity_isometry,
    random_corpus,
    random_isometry,
    reflection,
)
from .matrices import (
    IntMatrix,
    RatMatrix,
    format_int_matrix,
    format_rat_matrix,
    mat_mul,
    parse_int_matrix,
    parse_rat_matrix,
)
from .normalform import SmithDecomposition, smith_normal_form
from .oracle import (
    CapExceeded,
    IntersectionBasis,
    index_by_counting,
    index_by_hnf,
    intersection_hnf,
)
from .spectrum import (
    IndexWitness,
    SquareWitness,
    WitnessNotFound,
    coprime_witness,
    four_square_odd_decompose,
    is_three_square_excluded,
    reflection_spectrum,
    three_square_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CoprimalityViolated",
    "CrossCheckFailed",
    "IndexReport",
    "IndexWitness",
    "IntMatrix",
    "IntersectionBasis",
    "NotOrthogonal",
    "RatMatrix",
    "RationalIsometry",
    "ReflectionAxis",
    "SmithDecomposition",
    "SquareWitness",
    "WitnessNotFound",
    "compose",
    "coprime_witness",
    "format_int_matrix",
    "format_rat_matrix",
    "four_square_odd_decompose",
    "from_rational_matrix",
    "identity_isometry",
    "index_by_counting",
    "index_by_hnf",
    "index_closed_form",
    "index_coprime_product",
    "index_fortes",
    "index_reflection",
    "intersection_hnf",
    "is_three_square_excluded",
    "mat_mul",
    "parse_int_matrix",
    "parse_rat_matrix",
    "random_corpus",
    "random_isometry",
    "reflection",
    "reflection_spectrum",
    "smith_normal_form",
    "three_square_decompose",
]
