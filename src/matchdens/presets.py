"""Reproduction presets for the headline exact densities.

These wire the low-level modules together: the tetrahedral fiber-product
configuration (matching density 17/32).
"""

from __future__ import annotations

from fractions import Fraction

from . import catalog, groupcore
from .chartable import character_table_small, integer_valued_two_dimensional


def tetrahedral_matching_density() -> tuple[Fraction, dict]:
    """Matching density of the two pulled-back 2-dimensional characters on the
    fiber product of two binary tetrahedral groups over their common C3
    quotient.  Returns the exact fraction (17/32) plus construction details."""
    g = catalog.sl2f3_group()
    chi = integer_valued_two_dimensional(character_table_small(g))
    q = groupcore.abelianization(g)
    fiber = groupcore.fiber_product(g, g, q, q, name="sl2f3 x_C3 sl2f3")
    left = groupcore.pullback(chi, fiber, lambda pair: pair[0], name="left-factor")
    right = groupcore.pullback(chi, fiber, lambda pair: pair[1], name="right-factor")
    value = groupcore.matching_fraction(left, right)
    details = {
        "factor_order": g.order,
        "quotient_order": q.target.order,
        "fiber_order": fiber.order,
        "fiber_class_count": len(fiber.conjugacy_classes()),
        "character_degree": 2,
    }
    return value, details

