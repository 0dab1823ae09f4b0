"""Named constructors for the built-in groups addressable from the CLI.

Recognized names: trivial, cyclic:n, q8, s3, d4, sl2f3, gl2fp:p, heisenberg:3.
"""

from __future__ import annotations

from itertools import product as iproduct

import numpy as np

from .groupcore import FiniteGroup
from .primes import is_prime, primitive_root

GL2_ENUMERATION_MAX_P = 31  # keeps |GL2(F_p)| under one million


def trivial_group() -> FiniteGroup:
    return FiniteGroup([0], lambda a, b: 0, name="trivial")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    return FiniteGroup(
        range(n),
        lambda a, b: (a + b) % n,
        name=f"cyclic:{n}",
        inverse=lambda a: (-a) % n,
        generators=[1 % n],
    )


# unit part of the quaternion product: _Q8_UNITS[u][v] = (sign flip, unit)
_Q8_UNITS = (
    ((0, 0), (0, 1), (0, 2), (0, 3)),
    ((0, 1), (1, 0), (0, 3), (1, 2)),
    ((0, 2), (1, 3), (1, 0), (0, 1)),
    ((0, 3), (0, 2), (1, 1), (1, 0)),
)


def quaternion_group() -> FiniteGroup:
    """Q8 with handles (sign, unit): unit 0..3 reads 1, i, j, k."""

    def op(x, y):
        flip, unit = _Q8_UNITS[x[1]][y[1]]
        return ((x[0] + y[0] + flip) % 2, unit)

    elements = [(s, u) for s in (0, 1) for u in range(4)]
    return FiniteGroup(elements, op, name="q8", generators=[(0, 1), (0, 2)])


def symmetric3_group() -> FiniteGroup:
    perms = [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]

    def op(a, b):
        return tuple(a[b[i]] for i in range(3))

    return FiniteGroup(perms, op, name="s3", generators=[(1, 0, 2), (1, 2, 0)])


def dihedral4_group() -> FiniteGroup:
    """Symmetries of the square, handles (rotation mod 4, flip)."""

    def op(x, y):
        r1, f1 = x
        r2, f2 = y
        return ((r1 + (r2 if f1 == 0 else -r2)) % 4, (f1 + f2) % 2)

    elements = [(r, f) for f in (0, 1) for r in range(4)]
    return FiniteGroup(elements, op, name="d4", generators=[(1, 0), (0, 1)])


def _mat_mul_mod(x, y, p):
    return (
        (x[0] * y[0] + x[1] * y[2]) % p,
        (x[0] * y[1] + x[1] * y[3]) % p,
        (x[2] * y[0] + x[3] * y[2]) % p,
        (x[2] * y[1] + x[3] * y[3]) % p,
    )


def _mat_inv_mod(x, p):
    det = (x[0] * x[3] - x[1] * x[2]) % p
    dinv = pow(det, -1, p)
    return ((x[3] * dinv) % p, (-x[1] * dinv) % p, (-x[2] * dinv) % p, (x[0] * dinv) % p)


def sl2f3_group() -> FiniteGroup:
    """The binary tetrahedral group, realized as SL2 over the field with three elements."""
    p = 3
    elements = [
        m
        for m in iproduct(range(p), repeat=4)
        if (m[0] * m[3] - m[1] * m[2]) % p == 1
    ]
    return FiniteGroup(
        elements,
        lambda x, y: _mat_mul_mod(x, y, p),
        name="sl2f3",
        inverse=lambda x: _mat_inv_mod(x, p),
        generators=[(1, 1, 0, 1), (0, 1, 2, 0)],
    )


def gl2_group(p: int) -> FiniteGroup:
    """All of GL2 over F_p as an explicit group (p <= 31).

    Two matrices are conjugate exactly when they share the characteristic
    polynomial (trace, det) and are both scalar or both not, so each element
    is labelled by one int64 key on (scalar, trace, det) rather than by orbit
    search, and conjugacy stays cheap at the top of the range.
    """
    if p > GL2_ENUMERATION_MAX_P:
        raise ValueError(f"gl2fp enumeration is bounded at p <= {GL2_ENUMERATION_MAX_P}")
    elements = [
        m
        for m in iproduct(range(p), repeat=4)
        if (m[0] * m[3] - m[1] * m[2]) % p != 0
    ]

    def classified_labels(group: FiniteGroup) -> np.ndarray:
        a, b, c, d = np.array(group.elements, dtype=np.int64).T
        scalar = (b == 0) & (c == 0) & (a == d)
        return (scalar * p + (a + d) % p) * p + (a * d - b * c) % p

    # diag(r, 1) and [[-1, 1], [-1, 0]] generate GL2(F_p) for odd p; at p = 2
    # diag(1, 1) is the identity, and the swap [[0, 1], [1, 0]] takes its place
    first = (primitive_root(p), 0, 0, 1) if p > 2 else (0, 1, 1, 0)
    return FiniteGroup(
        elements,
        lambda x, y: _mat_mul_mod(x, y, p),
        name=f"gl2fp:{p}",
        inverse=lambda x: _mat_inv_mod(x, p),
        generators=[first, ((p - 1) % p, 1, (p - 1) % p, 0)],
        class_labels=classified_labels,
    )


def heisenberg3_group() -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_3, handles (a, b, c)."""
    p = 3

    def op(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2] + x[0] * y[1]) % p)

    def inverse(x):
        return ((-x[0]) % p, (-x[1]) % p, (-x[2] + x[0] * x[1]) % p)

    elements = [t for t in iproduct(range(p), repeat=3)]
    return FiniteGroup(
        elements,
        op,
        name="heisenberg:3",
        inverse=inverse,
        generators=[(1, 0, 0), (0, 1, 0)],
    )


def named_group(name: str) -> FiniteGroup:
    """Resolve a CLI group name like "cyclic:6" or "gl2fp:5"."""
    base, _, arg = name.partition(":")
    base = base.strip().lower()
    if base == "trivial":
        return trivial_group()
    if base == "cyclic":
        return cyclic_group(int(arg))
    if base == "q8":
        return quaternion_group()
    if base == "s3":
        return symmetric3_group()
    if base == "d4":
        return dihedral4_group()
    if base == "sl2f3":
        return sl2f3_group()
    if base == "gl2fp":
        p = int(arg)
        if not is_prime(p):
            raise ValueError(f"gl2fp:{arg}: {arg} is not prime")
        return gl2_group(p)
    if base == "heisenberg":
        if arg.strip() != "3":
            raise ValueError("only heisenberg:3 is built in")
        return heisenberg3_group()
    raise ValueError(
        f"unknown group {name!r}; known: trivial, cyclic:n, q8, s3, d4, sl2f3, "
        f"gl2fp:p, heisenberg:3"
    )
