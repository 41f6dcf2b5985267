"""Exact submodule zeta functions of integer matrices.

Count the finite-index sublattices of Z^n carried into themselves by a
square integer matrix, organized as a Dirichlet series.  The package
computes the series symbolically — local Euler factors, a global product
of shifted Dedekind zeta functions, the abscissa of convergence and pole
data, functional-equation exponents — and cross-checks every formula
against a brute-force Hermite-normal-form enumeration.
"""

from .canonical import (
    EdvContext,
    ElementaryDivisorVector,
    edv_context,
    elementary_divisor_vector,
    nilpotent_type,
    primary_type,
)
from .linalg import (
    IntMatrix,
    IntPoly,
    companion,
    kernel_dim,
    minpoly,
    n_of,
    poly_at_matrix,
    rank_over_q,
    resultant,
)
from .oracle import (
    BudgetError,
    ComparisonReport,
    compare,
    count_invariant_sublattices,
)
from .partitions import Partition, partitions_of
from .polyfactor import (
    DEFAULT_DEGREE_CAP,
    DegreeCapError,
    SplittingProfile,
    factor_over_z,
    splitting_profile,
)
from .zetacore import (
    BadPrimeError,
    BinomialProduct,
    DirichletCoefficients,
    FunctionalEquationData,
    GlobalZetaExpression,
    RamifiedPrimeError,
    XYRational,
    abscissa,
    abscissa_from_factors,
    bad_prime_reasons,
    dirichlet_coefficients,
    exceptional_factor_2x2,
    functional_equation_data,
    generic_local_factor,
    global_formula,
    good_primes,
    has_simple_pole_at_zero,
    is_good_prime,
    local_euler_factor,
    powerseries_ring_coeffs,
    verify_functional_equation,
    w_lambda,
    zpxn_zeta,
)

__version__ = "0.1.0"

__all__ = [
    "BadPrimeError",
    "BinomialProduct",
    "BudgetError",
    "ComparisonReport",
    "DEFAULT_DEGREE_CAP",
    "DegreeCapError",
    "DirichletCoefficients",
    "EdvContext",
    "ElementaryDivisorVector",
    "FunctionalEquationData",
    "GlobalZetaExpression",
    "IntMatrix",
    "IntPoly",
    "Partition",
    "RamifiedPrimeError",
    "SplittingProfile",
    "XYRational",
    "abscissa",
    "abscissa_from_factors",
    "bad_prime_reasons",
    "companion",
    "compare",
    "count_invariant_sublattices",
    "dirichlet_coefficients",
    "edv_context",
    "elementary_divisor_vector",
    "exceptional_factor_2x2",
    "factor_over_z",
    "functional_equation_data",
    "generic_local_factor",
    "global_formula",
    "good_primes",
    "has_simple_pole_at_zero",
    "is_good_prime",
    "kernel_dim",
    "local_euler_factor",
    "minpoly",
    "n_of",
    "nilpotent_type",
    "partitions_of",
    "poly_at_matrix",
    "powerseries_ring_coeffs",
    "primary_type",
    "rank_over_q",
    "resultant",
    "splitting_profile",
    "verify_functional_equation",
    "w_lambda",
    "zpxn_zeta",
]
