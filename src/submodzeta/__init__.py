"""Exact submodule zeta functions of integer matrices.

Count the finite-index sublattices of Z^n carried into themselves by a
square integer matrix, organized as a Dirichlet series.  The package
computes the series symbolically — local Euler factors, a global product
of shifted Dedekind zeta functions, the abscissa of convergence and pole
data, functional-equation exponents — and cross-checks every formula
against brute-force counts: Hermite-normal-form enumeration, or a tree
of invariant lattices grown level by level where that is cheaper.  The
counting oracle shares no code with the formulas; the `verify` command
sets the two side by side.
"""

from .canonical import (
    EdvContext,
    ElementaryDivisorVector,
    edv_context,
)
from .linalg import (
    IntMatrix,
    IntPoly,
    kernel_dim,
    minpoly,
    poly_at_matrix,
    resultant,
)
from .oracle import (
    BudgetError,
    count_invariant_sublattices,
)
from .partitions import Partition
from .polyfactor import (
    DEFAULT_DEGREE_CAP,
    DegreeCapError,
    SplittingProfile,
    factor_over_z,
    splitting_profile,
)
from .zetacore import (
    BinomialProduct,
    FunctionalEquationData,
    GlobalZetaExpression,
    RamifiedPrimeError,
    abscissa,
    bad_prime_reasons,
    dirichlet_coefficients,
    functional_equation_data,
    generic_local_factor,
    global_formula,
    good_primes,
    has_simple_pole_at_zero,
    is_good_prime,
    powerseries_ring_coeffs,
    verify_functional_equation,
    w_lambda,
    zpxn_zeta,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialProduct",
    "BudgetError",
    "DEFAULT_DEGREE_CAP",
    "DegreeCapError",
    "EdvContext",
    "ElementaryDivisorVector",
    "FunctionalEquationData",
    "GlobalZetaExpression",
    "IntMatrix",
    "IntPoly",
    "Partition",
    "RamifiedPrimeError",
    "SplittingProfile",
    "abscissa",
    "bad_prime_reasons",
    "count_invariant_sublattices",
    "dirichlet_coefficients",
    "edv_context",
    "factor_over_z",
    "functional_equation_data",
    "generic_local_factor",
    "global_formula",
    "good_primes",
    "has_simple_pole_at_zero",
    "is_good_prime",
    "kernel_dim",
    "minpoly",
    "poly_at_matrix",
    "powerseries_ring_coeffs",
    "resultant",
    "splitting_profile",
    "verify_functional_equation",
    "w_lambda",
    "zpxn_zeta",
]
