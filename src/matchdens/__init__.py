"""matchdens: exact matching and zero-trace densities for finite Galois-type
data, constructive density planners, and empirical Chebotarev verification."""

__version__ = "0.1.0"

from .cyclotomic import CycValue, cyclotomic_polynomial
from .groupcore import (
    ClassFunction,
    ConjClassPartition,
    FiniteGroup,
    QuotientMap,
    abelianization,
    commutator_subgroup,
    direct_product,
    fiber_product,
    is_nilpotent,
    matching_fraction,
    pullback,
    quotient_by,
    zero_fraction,
)
from .chartable import character_table_small, integer_valued_two_dimensional
from .catalog import named_group
from .gl2fp import (
    ClassType,
    GL2Element,
    class_type_fractions,
    classify,
    product_character,
    steinberg_character_data,
)
from .density import (
    ApproxPlan,
    PrimeWindow,
    approximate_matching_density,
    approximate_zero_density,
    nonzero_density,
    prime_window,
    twist_density,
    verify_plan,
    zero_density,
)
from .primes import is_prime, next_prime
from .sieveshift import QuadPoly, almost_prime_scan, find_shift, pairwise_coprime, shifted_poly
from .ellstat import Curve, chebotarev_histogram, count_points, frobenius_class, trace_of_frobenius
from .dirichletden import (
    DirichletChar,
    dirichlet_character,
    dirichlet_characters,
    exact_matching_density_dirichlet,
    natural_density_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
