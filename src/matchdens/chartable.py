"""Exact character tables of small finite groups.

The class-algebra method of Dixon (1967), as refined by Schneider (1990):
class sums span the center of the group algebra, so their structure-constant
matrices commute and share a full set of eigenvectors whose entries are the
central character values.  Every stage after the conjugacy classes works on
int64 numpy arrays:

- structure constants: for each class representative z, the permutation
  x -> x z of element indices is one call of the group's product over all
  indices, and one bincount over pairs of classes counts the x^-1 z;
- eigenspaces over F_l, with l = 1 (mod exponent) and l > 2*ceil(sqrt(|G|)):
  images and coordinates are matrix products mod l, each restricted
  characteristic polynomial is evaluated at all of F_l at once, and one
  reduced row echelon form (`_rref`) gives both the kernels and the canonical
  basis of each eigenspace;
- degrees and values mod l, then exact values by finite-field Fourier
  inversion over each representative's cycle of power classes: one
  (characters x n) @ (n x n) product per class of cycle length n, giving the
  multiplicity of every n-th root of unity as an eigenvalue.  The values'
  coordinates, and their sort keys at the exponent, are products with
  `cyclotomic.power_basis_matrix`.

Row orthogonality is re-verified exactly before the table is returned:
sum_k |C_k| chi_a(k) conj(chi_b(k)) is accumulated in the group ring Z[C_E]
of the cyclic group of order E = exponent, class by class at each class's
cycle length, reduced by power_basis_matrix(E) and compared with
|G| delta_ab, after a bound check that keeps every int64 sum exact.
"""

from __future__ import annotations

from math import isqrt, lcm

import numpy as np

from .cyclotomic import CycValue, power_basis_matrix
from .groupcore import ClassFunction, FiniteGroup
from .primes import is_prime, primitive_root

MAX_CLASSES = 30
MAX_ORDER = 2000
DEFAULT_MODULUS_BOUND = 10**6
INT64_MAX = 2**63 - 1


class CharacterTableError(ValueError):
    """The group is outside the supported range or the method failed."""


# -- small dense linear algebra over F_l, on int64 arrays: l <= 10^6, so a
# -- product of two residues stays below 10^12 and a sum of millions is exact


def _inverses_mod(values, l: int) -> np.ndarray:
    return np.array([pow(int(v), -1, l) for v in values], dtype=np.int64)


def _charpoly_hessenberg(m: np.ndarray, l: int) -> np.ndarray:
    """Characteristic polynomial mod l, coefficients low -> high, monic."""
    h = m % l
    n = len(h)
    for col in range(n - 2):
        nonzero = h[col + 1:, col].nonzero()[0]
        if not nonzero.size:
            continue
        pivot = col + 1 + nonzero[0]
        if pivot != col + 1:
            h[[pivot, col + 1]] = h[[col + 1, pivot]]
            h[:, [pivot, col + 1]] = h[:, [col + 1, pivot]]
        # the row operations below the pivot commute, so they go at once
        f = h[col + 2:, col] * pow(int(h[col + 1, col]), -1, l) % l
        h[col + 2:] = (h[col + 2:] - f[:, None] * h[col + 1]) % l
        h[:, col + 1] = (h[:, col + 1] + h[:, col + 2:] @ f) % l
    # recurrence on leading principal minors of xI - H, one row per minor
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for k in range(1, n + 1):
        cur, prev = polys[k], polys[k - 1]
        cur[1:] = prev[:-1]
        cur[:] = (cur - h[k - 1, k - 1] * prev) % l
        coeffs = np.zeros(k - 1, dtype=np.int64)
        subdiag = 1
        for i in range(k - 2, -1, -1):
            subdiag = subdiag * int(h[i + 1, i]) % l
            coeffs[i] = int(h[i, k - 1]) * subdiag % l
        cur[:] = (cur - coeffs @ polys[: k - 1]) % l
    return polys[n]


def _roots_mod(poly: np.ndarray, l: int) -> np.ndarray:
    """Ascending roots in F_l, by evaluating poly at every residue at once."""
    xs = np.arange(l, dtype=np.int64)
    acc = np.zeros(l, dtype=np.int64)
    for c in poly[::-1]:
        acc = (acc * xs + c) % l
    return np.flatnonzero(acc == 0)


def _rref(rows, l: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_l: the non-zero rows, and their pivot
    columns in ascending order.  The rows are the canonical basis of the row
    span; the kernel of the input is read off the free columns."""
    a = np.array(rows, dtype=np.int64) % l
    pivots: list[int] = []
    for col in range(a.shape[1]):
        top = len(pivots)
        if top == len(a):
            break
        nonzero = a[top:, col].nonzero()[0]
        if not nonzero.size:
            continue
        sel = top + nonzero[0]
        if sel != top:
            a[[top, sel]] = a[[sel, top]]
        a[top] = a[top] * pow(int(a[top, col]), -1, l) % l
        f = a[:, col].copy()
        f[top] = 0
        a = (a - f[:, None] * a[top]) % l
        pivots.append(col)
    return a[: len(pivots)], pivots


def _nullspace(m, l: int) -> np.ndarray:
    """Basis of the kernel of m over F_l, one row per free column."""
    reduced, pivots = _rref(m, l)
    free = [c for c in range(reduced.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), reduced.shape[1]), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -reduced[:, free].T % l
    return basis


# -- the table computation


def _choose_modulus(order: int, exponent: int) -> int:
    floor = 2 * isqrt(order - 1) + 2 if order > 1 else 2
    l = exponent + 1
    while l <= DEFAULT_MODULUS_BOUND:
        if l > floor and is_prime(l):
            return l
        l += exponent
    raise CharacterTableError(
        f"no working prime modulus = 1 (mod {exponent}) below {DEFAULT_MODULUS_BOUND}"
    )


def character_table_small(group: FiniteGroup) -> list[ClassFunction]:
    """Complete list of irreducible characters with exact cyclotomic values.

    Characters are ordered by degree, then lexicographically by their value
    vectors, so reruns are identical.  Raises CharacterTableError when the
    group exceeds 30 classes / order 2000 or no working modulus exists.
    """
    if group.order > MAX_ORDER:
        raise CharacterTableError(f"order {group.order} exceeds bound {MAX_ORDER}")
    part = group.conjugacy_classes()
    r = len(part)
    if r > MAX_CLASSES:
        raise CharacterTableError(f"{r} classes exceeds bound {MAX_CLASSES}")
    n = group.order
    class_of = part.class_of
    indices = np.arange(n)
    inv_of = group.inv(indices)
    perms = [group.mul(indices, z) for z in part.representatives]
    cycles = [class_of[_power_cycle(perm, group.identity)] for perm in perms]
    exponent = lcm(*map(len, cycles))
    l = _choose_modulus(n, exponent)
    root = pow(primitive_root(l), (l - 1) // exponent, l)  # of exact order exponent

    # split the r-dimensional space into common eigenlines of the class sums
    spaces = [(np.eye(r, dtype=np.int64), list(range(r)))]
    for mat in _structure_constants(class_of, inv_of, perms):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        spaces = _split_spaces(spaces, mat, l)
    if not all(len(basis) == 1 for basis, _ in spaces):
        raise CharacterTableError("class-sum matrices failed to separate characters")

    # one eigenvector per character, normalized at the identity class
    omega = np.concatenate([basis for basis, _ in spaces])
    pivot = omega[:, class_of[group.identity]]
    if not pivot.all():
        raise CharacterTableError("eigenvector vanishes on the identity class")
    omega = omega * _inverses_mod(pivot, l)[:, None] % l
    inv_sizes = _inverses_mod(part.sizes, l)
    # 1/d^2 = (1/|G|) sum_k omega_k omega_{k*} / |C_k|
    kstar = class_of[inv_of[part.representatives]]
    inv_dsq = (omega * omega[:, kstar] % l) @ inv_sizes % l
    dsq = n % l * _inverses_mod(inv_dsq, l) % l
    found = dsq[:, None] == np.arange(1, isqrt(n) + 1) ** 2 % l
    if not found.any(axis=1).all():
        raise CharacterTableError("degree recovery failed (modulus too small?)")
    degrees = found.argmax(axis=1) + 1
    chi_mod = degrees[:, None] * omega % l * inv_sizes % l

    mults = _lift(cycles, chi_mod, degrees, exponent, root, l)
    conductors = [mult.shape[1] for mult in mults]
    coords = [mult @ power_basis_matrix(n_k) for mult, n_k in zip(mults, conductors)]
    _verify_table(n, part.sizes.tolist(), degrees.tolist(), conductors, coords, exponent)
    values = [[] for _ in range(r)]
    for n_k, vecs in zip(conductors, coords):
        for row, vec in zip(values, vecs.tolist()):
            row.append(CycValue.from_power_basis(n_k, vec))
    # sort keys: every value's coordinates at the exponent, class by class
    at_exponent = power_basis_matrix(exponent)
    keys = np.concatenate(
        [mult @ at_exponent[:: exponent // n_k] for mult, n_k in zip(mults, conductors)], axis=1
    )
    order = sorted(range(r), key=lambda c: (degrees[c], keys[c].tolist()))
    return [
        ClassFunction(group, values[c], name=f"chi{idx}") for idx, c in enumerate(order)
    ]


def _power_cycle(perm: np.ndarray, identity: int) -> list[int]:
    """Indices of z^0, z^1, ... up to the order of z, from x -> x z."""
    out, cur = [identity], int(perm[identity])
    while cur != identity:
        out.append(cur)
        cur = int(perm[cur])
        if len(out) > len(perm):
            raise CharacterTableError("a representative's powers never return to 1")
    return out


def _structure_constants(class_of: np.ndarray, inv_of: np.ndarray, perms) -> np.ndarray:
    """a[i, j, k] = #{x in C_i : x^-1 z_k in C_j}, perms[k] being x -> x z_k."""
    r = len(perms)
    return np.stack(
        [
            np.bincount(class_of * r + class_of[perm[inv_of]], minlength=r * r).reshape(r, r)
            for perm in perms
        ],
        axis=2,
    )


def _split_spaces(spaces, mat: np.ndarray, l: int):
    """Each (reduced basis rows, pivot columns) space, split into the
    eigenspaces of mat restricted to it."""
    out = []
    for basis, pivots in spaces:
        if len(basis) == 1:
            out.append((basis, pivots))
            continue
        images = basis @ mat.T % l
        # a reduced echelon basis reads a vector's coordinates at its pivots
        coords = images[:, pivots]
        if ((images - coords @ basis) % l).any():
            raise CharacterTableError("class-sum matrices do not preserve a split subspace")
        restricted = coords.T
        eye = np.eye(len(basis), dtype=np.int64)
        if np.array_equal(restricted, restricted[0, 0] * eye):
            out.append((basis, pivots))  # a scalar splits nothing
            continue
        for lam in _roots_mod(_charpoly_hessenberg(restricted, l), l):
            null = _nullspace(restricted - lam * eye, l)
            out.append(_rref(null @ basis % l, l))
    return out


def _lift(cycles, chi_mod, degrees, exponent, root, l) -> list[np.ndarray]:
    """Exact values from mod-l values via Fourier inversion on each rep's cycle
    of power classes; root has exact order exponent mod l.

    One array per class, of shape (characters, n) for a cycle of length n:
    entry j is the multiplicity of zeta_n^j among the representative's
    eigenvalues, so the value is sum_j mult_j zeta_n^j.
    """
    root_powers = np.empty(exponent, dtype=np.int64)
    root_powers[0] = 1
    for t in range(1, exponent):
        root_powers[t] = root_powers[t - 1] * root % l
    mults = []
    for k, power_class in enumerate(cycles):
        n_k = len(power_class)
        zeta_powers = root_powers[:: exponent // n_k]
        steps = np.arange(n_k)
        inverse_dft = zeta_powers[-np.outer(steps, steps) % n_k]
        mult = chi_mod[:, power_class] @ inverse_dft % l * pow(n_k, -1, l) % l
        if (mult > degrees[:, None]).any():
            raise CharacterTableError("eigenvalue multiplicities failed to lift")
        if (mult @ zeta_powers % l != chi_mod[:, k]).any():
            raise CharacterTableError("lifted value does not reduce back mod l")
        mults.append(mult)
    return mults


def _verify_table(order: int, sizes: list[int], degrees, conductors, coeffs, exponent: int) -> None:
    """Raise CharacterTableError unless the characters are orthonormal.

    coeffs[k][c, j] is the integer coefficient of zeta_n^j, n = conductors[k]
    dividing the exponent E and j < coeffs[k].shape[1] <= n, in the value of
    character c at class k.  sum_k |C_k| chi_a(k) conj(chi_b(k)) is
    accumulated in Z[C_E], one correlation product per conductor, reduced to
    power-basis coordinates and compared with |G| delta_ab, exactly.
    """
    if sum(d * d for d in degrees) != order:
        raise CharacterTableError("degrees do not satisfy sum(d^2) = |G|")
    basis = power_basis_matrix(exponent)
    # a reduced coordinate is at most the l1 norm of its ring element times
    # the largest basis entry, and no partial sum on the way exceeds that
    bound = int(np.abs(basis).max()) * sum(
        size * int(np.abs(c).sum(axis=1).max()) ** 2 for size, c in zip(sizes, coeffs)
    )
    if bound > INT64_MAX:
        raise CharacterTableError(f"orthogonality sums up to {bound} overflow int64")
    chars = len(degrees)
    by_conductor: dict[int, list[int]] = {}
    for k, n in enumerate(conductors):
        by_conductor.setdefault(n, []).append(k)
    ring = np.zeros((chars, chars, exponent), dtype=np.int64)
    for n, classes in by_conductor.items():
        # chi_a conj(chi_b) has coefficient sum_j a_j b_(j-d) at zeta_n^d
        width = coeffs[classes[0]].shape[1]
        shift = (np.arange(width)[:, None] - np.arange(n)) % n
        left = np.concatenate([sizes[k] * coeffs[k] for k in classes], axis=1)
        right = np.concatenate(
            [
                np.pad(coeffs[k], ((0, 0), (0, n - width)))[:, shift]
                .transpose(1, 0, 2)
                .reshape(width, chars * n)
                for k in classes
            ]
        )
        ring[:, :, :: exponent // n] += (left @ right).reshape(chars, chars, n)
    gram = ring @ basis
    expected = np.zeros_like(gram)
    expected[:, :, 0] = order * np.eye(chars, dtype=np.int64)
    bad = np.argwhere((gram != expected).any(axis=2))
    if bad.size:
        a, b = bad[0].tolist()
        raise CharacterTableError(f"orthogonality fails for characters {a}, {b}")


def integer_valued_two_dimensional(table: list[ClassFunction]) -> ClassFunction:
    """The unique 2-dimensional character whose values are all rational integers.

    Raises if there is none or more than one (the binary tetrahedral group is
    expected to have exactly one; a different count is a red flag).
    """
    hits = []
    for cf in table:
        if cf.degree() == 2 and all(
            v.is_rational() and v.as_rational().denominator == 1 for v in cf.values
        ):
            hits.append(cf)
    if len(hits) != 1:
        raise CharacterTableError(
            f"expected exactly one integer-valued 2-dimensional character, found {len(hits)}"
        )
    return hits[0]
