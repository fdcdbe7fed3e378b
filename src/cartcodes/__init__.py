"""Evaluation codes on cartesian grids over small finite fields.

Build a grid A_1 x ... x A_n inside F_q, evaluate all polynomials of degree
<= d on it, and read off the code's exact length, dimension, minimum
distance, and regularity from closed formulas; generator matrices, extremal
codewords, named constructions, and brute-force verification oracles are
included.  The oracle and CLI submodules are not imported here: use
`from cartcodes import oracle`.
"""

from .code import (
    CartesianCode,
    CodeParams,
    GeneratorMatrix,
    HilbertData,
    KLDecomposition,
    build_generator_matrix,
    code_params,
    decompose_k_ell,
    dimension_formula,
    encode,
    extremal_codeword,
    hilbert_data,
    hilbert_function,
    hilbert_numerator,
    loose_zero_bound,
    min_distance_formula,
    normalize_spec,
    regularity,
    standard_monomials,
    zero_bound,
)
from .constructions import (
    DegenerateTorusSpec,
    degenerate_torus_for_degrees,
    projective_torus_params,
    reed_muller_params,
    torus_spec_from_type,
)
from .errors import (
    ArityMismatchError,
    BudgetExceededError,
    CartesianCodeError,
    DuplicateElementError,
    EmptySetError,
    FieldMismatchError,
    InvalidFieldCapError,
    InvalidFieldError,
    LengthMismatchError,
    NotADivisorError,
    NotPrimeError,
    OutOfRangeError,
    SearchExceededError,
    TooLargeError,
)
from .field import Field, Subgroup, field_for_order, make_field
from .grid import Grid
from .poly import (
    MultiPoly,
    evaluate_on_grid,
    grevlex_exponents,
    grevlex_key,
    reduce_mod_grid,
    vanishing_univariate,
    zero_count,
)

__version__ = "0.1.0"
