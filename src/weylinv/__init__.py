"""Inversion hyperplane arrangements of Weyl group elements: Bruhat order,
Poincaré polynomials by deletion-restriction and NBC sets, inductive freeness
with certificates, supersolvability, chain BP decompositions, and
root-system pattern avoidance."""

from .arrangement import (
    Arrangement, characteristic_polynomial, coatoms, deletion, flat_of,
    is_modular_coatom, is_supersolvable, localization, nbc_counts_by_size,
    nbc_sets, poincare_polynomial, quotient_by_center, restriction,
)
from .cache import clear_caches
from .freeness import (
    FreenessResult, inductively_free, verify_certificate,
)
from .inversion import (
    OrderedInversionSet, element_from_biconvex, flatten, inversion_arrangement,
    inversion_set, is_biconvex, is_convex_order, phi,
)
from .polynomials import IntPolynomial, linear_split, q_int, q_integer_factorization
from .rootsys import CartanDatum, RootSystem, Subsystem, cartan_datum, subsystem
from .smoothness import (
    BPDecomposition, ChainBPTree, complete_chain_bp, contains_pattern,
    exceptional_element, exponents_of, find_chain_bp, hlss, is_bp, pattern_hits,
    rationally_smooth, theorem_audit, tree_exponents,
)
from .weyl import (
    WeylElement, WeylGroup, bruhat_interval, bruhat_leq, coset_poincare,
    longest_element, parabolic_decomposition, poincare,
)

__version__ = "0.1.0"
