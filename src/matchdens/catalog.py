"""Named constructors for the built-in groups addressable from the CLI.

Recognized names: trivial, cyclic:n, q8, s3, d4, sl2f3, gl2fp:p, heisenberg:3.
Each group's `op` multiplies element indices with numpy arithmetic on the
index (or on the entries it codes), so one call multiplies whole arrays, and
each group's generators are given as element indices.
"""

from __future__ import annotations

from itertools import permutations, product as iproduct
from typing import Callable

import numpy as np

from .gl2fp import ENUMERATION_MAX_P
from .groupcore import FiniteGroup
from .primes import is_prime, primitive_root


def trivial_group() -> FiniteGroup:
    return FiniteGroup([0], lambda i, j: i * j, name="trivial")  # 0 * 0 = 0


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    return FiniteGroup(range(n), lambda i, j: (i + j) % n, name=f"cyclic:{n}", generators=[1 % n])


# units 1, i, j, k multiply as u v = (-1)^_Q8_FLIP[u][v] (u xor v)
_Q8_FLIP = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


def quaternion_group() -> FiniteGroup:
    """Q8 with handles (sign, unit): unit 0..3 reads 1, i, j, k; index 4 sign + unit."""

    def op(i, j):
        (s, u), (t, v) = np.divmod(i, 4), np.divmod(j, 4)
        return (s + t + _Q8_FLIP[u, v]) % 2 * 4 + (u ^ v)

    elements = [(s, u) for s in (0, 1) for u in range(4)]
    return FiniteGroup(elements, op, name="q8", generators=[1, 2])  # i, j


def symmetric3_group() -> FiniteGroup:
    """Permutations of three points in lexicographic order, (x y)(k) = x(y(k))."""
    perms = np.array(list(permutations(range(3))))
    position = np.full(27, -1)
    position[perms @ (9, 3, 1)] = np.arange(6)

    def op(i, j):
        return position[perms[np.asarray(i)[..., None], perms[j]] @ (9, 3, 1)]

    return FiniteGroup(perms, op, name="s3", generators=[2, 3])  # (1, 0, 2), (1, 2, 0)


def dihedral4_group() -> FiniteGroup:
    """Symmetries of the square, handles (rotation mod 4, flip); index 4 flip + rotation."""

    def op(i, j):
        (f, r), (g, s) = np.divmod(i, 4), np.divmod(j, 4)
        return (f + g) % 2 * 4 + (r + s - 2 * f * s) % 4  # r + (-1)^f s

    elements = [(r, f) for f in (0, 1) for r in range(4)]
    return FiniteGroup(elements, op, name="d4", generators=[1, 4])  # rotation, flip


def _matrices(p: int, det_ok: Callable) -> tuple[np.ndarray, Callable, Callable]:
    """The 2x2 matrices over F_p whose determinants pass det_ok, as rows
    a, b, c, d of one array, in lexicographic order; their product on
    indices, computed on the entries and found again by its base-p code; and
    index(a, b, c, d), the index of one matrix, read off its code alike."""
    codes = np.arange(p**4)
    a, b, c, d = codes // p**3, codes // p**2 % p, codes // p % p, codes % p
    keep = det_ok((a * d - b * c) % p)
    matrices = np.stack([a[keep], b[keep], c[keep], d[keep]])
    position = np.full(p**4, -1)
    position[keep] = np.arange(matrices.shape[1])

    def op(i, j):
        (a, b, c, d), (w, x, y, z) = matrices[:, i], matrices[:, j]
        top = (a * w + b * y) % p * p + (a * x + b * z) % p
        return position[(top * p + (c * w + d * y) % p) * p + (c * x + d * z) % p]

    def index(a, b, c, d):
        return int(position[((a * p + b) * p + c) * p + d])

    return matrices, op, index


def sl2f3_group() -> FiniteGroup:
    """The binary tetrahedral group, realized as SL2 over the field with three elements."""
    matrices, op, index = _matrices(3, lambda det: det == 1)
    return FiniteGroup(matrices.T, op, name="sl2f3", generators=[index(1, 1, 0, 1), index(0, 1, 2, 0)])


def gl2_group(p: int) -> FiniteGroup:
    """All of GL2 over F_p as an explicit group (p <= 31).

    Two matrices are conjugate exactly when they share the characteristic
    polynomial (trace, det) and are both scalar or both not, so each element
    is labelled by one int64 key on (scalar, trace, det) rather than by orbit
    search, and conjugacy stays cheap at the top of the range.
    """
    if p > ENUMERATION_MAX_P:
        raise ValueError(f"gl2fp enumeration is bounded at p <= {ENUMERATION_MAX_P}")
    matrices, op, index = _matrices(p, lambda det: det != 0)

    def classified_labels(group: FiniteGroup) -> np.ndarray:
        a, b, c, d = matrices
        scalar = (b == 0) & (c == 0) & (a == d)
        return (scalar * p + (a + d) % p) * p + (a * d - b * c) % p

    # diag(r, 1) and [[-1, 1], [-1, 0]] generate GL2(F_p) for odd p; at p = 2
    # diag(1, 1) is the identity, and the swap [[0, 1], [1, 0]] takes its place
    first = index(primitive_root(p), 0, 0, 1) if p > 2 else index(0, 1, 1, 0)
    return FiniteGroup(
        matrices.T,
        op,
        name=f"gl2fp:{p}",
        generators=[first, index(p - 1, 1, p - 1, 0)],
        class_labels=classified_labels,
    )


def heisenberg3_group() -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_3, handles (a, b, c); index 9a + 3b + c."""

    def op(i, j):
        a, b, c = i // 9, i // 3 % 3, i % 3
        x, y, z = j // 9, j // 3 % 3, j % 3
        return (a + x) % 3 * 9 + (b + y) % 3 * 3 + (c + z + a * y) % 3

    elements = list(iproduct(range(3), repeat=3))
    return FiniteGroup(elements, op, name="heisenberg:3", generators=[9, 3])  # (1, 0, 0), (0, 1, 0)


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
