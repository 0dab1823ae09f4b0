"""Exact character tables of small finite groups.

The class-algebra method of Dixon (1967), as refined by Schneider (1990):
class sums span the center of the group algebra, so their structure-constant
matrices commute and share a full set of eigenvectors whose entries are the
central character values.  Every stage after the conjugacy classes works on
int64 numpy arrays:

- structure constants: the permutations x -> x z of element indices, for
  every class representative z, come from one blocked call of the group's
  product; stepping them all at once gives each z's cycle of powers, which
  ends at z^-1, and one bincount over triples of classes counts the x^-1 z;
- eigenspaces over F_l, with l = 1 (mod exponent) and l > 2*ceil(sqrt(|G|)):
  a few fixed pseudo-random combinations of the class-sum matrices split the
  space first, and the class-sum matrices follow in the same loop until
  every space is a line.  Each split evaluates the restricted characteristic
  polynomial at all of F_l at once and reads every eigenspace off its
  spectral projector, one einsum over the powers of the restricted matrix;
  the eigenlines are normalized together, and only eigenspaces of dimension
  above 1 go through a reduced row echelon form (`_rref`);
- degrees and values mod l, then exact values by finite-field Fourier
  inversion over each representative's cycle of power classes: one
  (characters x classes x n) @ (n x n) product per cycle length n, giving
  the multiplicity of every n-th root of unity as an eigenvalue.  The
  values' coordinates, and their sort keys at the exponent, are products
  with `cyclotomic.power_basis_matrix`.

Row orthogonality is re-verified exactly before the table is returned:
sum_k |C_k| chi_a(k) conj(chi_b(k)) is accumulated in the group ring Z[C_E]
of the cyclic group of order E = exponent, one product per cycle length over
the powers of zeta that get a term, reduced by the rows of
power_basis_matrix(E) at those powers and compared with |G| delta_ab, after
a bound check that keeps every int64 sum exact.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt, lcm
from random import Random

import numpy as np

from .cyclotomic import CycValue, power_basis_matrix
from .groupcore import ClassFunction, FiniteGroup
from .primes import is_prime, primitive_root

MAX_CLASSES = 30
MAX_ORDER = 2000
DEFAULT_MODULUS_BOUND = 10**6
INT64_MAX = 2**63 - 1
# class-sum combinations tried before the class sums themselves
SPLIT_ROUNDS = 4
SPLIT_SEED = 1990


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
    # recurrence on leading principal minors of xI - H, one row per minor:
    # minor k takes h[i, k-1] h[i+1, i] ... h[k-1, k-2] times minor i off,
    # for every i < k - 1 at once
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    subdiag = np.zeros(0, dtype=np.int64)  # h[i+1, i] ... h[k-1, k-2] for i < k - 1
    for k in range(1, n + 1):
        cur, prev = polys[k], polys[k - 1]
        cur[1:] = prev[:-1]
        cur[:] = (cur - h[k - 1, k - 1] * prev) % l
        if k > 1:
            subdiag = np.append(subdiag, 1) * h[k - 1, k - 2] % l
            cur[:] = (cur - (h[: k - 1, k - 1] * subdiag % l) @ polys[: k - 1]) % l
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
    span."""
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
    perms = np.concatenate(
        [group.mul(indices[None, :], block[:, None]) for block in group._row_blocks(part.representatives)]
    )
    cycles = [class_of[powers] for powers in _power_cycles(perms, group.identity)]
    kstar = np.array([cycle[-1] for cycle in cycles])  # z^(order - 1) = z^-1
    exponent = lcm(*map(len, cycles))
    l = _choose_modulus(n, exponent)
    root = pow(primitive_root(l), (l - 1) // exponent, l)  # of exact order exponent

    # split the r-dimensional space into common eigenlines of the class sums:
    # first by seeded combinations of them, then by each class sum in turn
    class_sums = _structure_constants(class_of, kstar, perms)
    mixed = np.tensordot(_split_coefficients(r, l), class_sums, axes=(1, 0)) % l
    spaces = [(np.eye(r, dtype=np.int64), list(range(r)))]
    for mat in chain(mixed, class_sums):
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
    blocks = [CycValue.from_power_basis(n_k, vecs) for n_k, vecs in zip(conductors, coords)]
    values = list(zip(*blocks))  # character by character
    # sort keys: every value's coordinates at the exponent, class by class
    at_exponent = power_basis_matrix(exponent)
    keys = np.concatenate(
        [mult @ at_exponent[:: exponent // n_k] for mult, n_k in zip(mults, conductors)], axis=1
    )
    order = sorted(range(r), key=lambda c: (degrees[c], keys[c].tolist()))
    return [
        ClassFunction(group, values[c], name=f"chi{idx}") for idx, c in enumerate(order)
    ]


def _power_cycles(perms: np.ndarray, identity: int) -> list[np.ndarray]:
    """Per row z of perms (x -> x z), the indices of z^0, z^1, ... up to the
    order of z: every row is stepped at once."""
    rows = np.arange(len(perms))
    powers = [np.full(len(perms), identity)]
    orders = np.zeros(len(perms), dtype=np.int64)
    while not orders.all():
        if len(powers) > perms.shape[1]:
            raise CharacterTableError("a representative's powers never return to 1")
        step = perms[rows, powers[-1]]
        orders[(step == identity) & (orders == 0)] = len(powers)
        powers.append(step)
    table = np.stack(powers, axis=1)
    return [table[k, :order] for k, order in enumerate(orders.tolist())]


def _structure_constants(class_of: np.ndarray, kstar: np.ndarray, perms) -> np.ndarray:
    """a[i, j, k] = #{x in C_i : x^-1 z_k in C_j}, perms[k] being x -> x z_k
    and C_kstar[i] the class of the inverses of C_i.

    a[i] is the matrix of multiplication by the class sum of C_i in the basis
    of class sums.  As x runs over C_i, w = x^-1 runs over C_kstar[i], so one
    bincount of the classes of (w, w z_k) gives every a[i] at once."""
    perms = np.asarray(perms)
    r = len(perms)
    codes = (class_of * r + class_of[perms]) * r + np.arange(r)[:, None]
    return np.bincount(codes.ravel(), minlength=r**3).reshape(r, r, r)[kstar]


def _split_coefficients(r: int, l: int) -> np.ndarray:
    """SPLIT_ROUNDS rows of r fixed pseudo-random coefficients in [1, l): each
    row mixes the class sums into one matrix that is tried before them."""
    draws = Random(SPLIT_SEED).choices(range(1, l), k=SPLIT_ROUNDS * r)
    return np.array(draws, dtype=np.int64).reshape(SPLIT_ROUNDS, r)


def _split_spaces(spaces, mat: np.ndarray, l: int):
    """Each (reduced basis rows, pivot columns) space, split into the
    eigenspaces of mat restricted to it, in ascending order of eigenvalue."""
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
        if np.array_equal(coords, coords[0, 0] * np.eye(len(basis), dtype=np.int64)):
            out.append((basis, pivots))  # a scalar splits nothing
            continue
        roots = _roots_mod(_charpoly_hessenberg(coords, l), l)
        out.extend(_eigenspaces(coords, roots, basis, l))
    return out


def _eigenspaces(coords: np.ndarray, roots: np.ndarray, basis: np.ndarray, l: int):
    """The eigenspaces of x -> x coords, one per root, each read off the rows
    of its spectral projector q_i(coords), q_i = m / (x - root_i) with m the
    product of (x - root) over all the roots, and returned as the reduced
    echelon basis (rows, pivots) of its image under basis."""
    d, s = len(coords), len(roots)
    m = np.zeros(s + 1, dtype=np.int64)  # low -> high
    m[0] = 1
    for lam in roots.tolist():
        m[1:] = (m[:-1] - lam * m[1:]) % l
        m[0] = -lam * m[0] % l
    powers = np.empty((s + 1, d, d), dtype=np.int64)
    powers[0] = np.eye(d, dtype=np.int64)
    for k in range(1, s + 1):
        powers[k] = powers[k - 1] @ coords % l
    # m(coords) = 0 makes the matrix diagonalizable over F_l, and
    # q_i(coords) / q_i(root_i) the projector on eigenspace i, whose trace is
    # its dimension
    if (np.tensordot(m, powers, axes=1) % l).any():
        raise CharacterTableError("a class-sum matrix is not diagonalizable over F_l")
    # q_i's coefficients, low -> high, by synthetic division of m
    quotients = np.zeros((s, s), dtype=np.int64)
    quotients[:, s - 1] = 1
    for k in range(s - 1, 0, -1):
        quotients[:, k - 1] = (m[k] + roots * quotients[:, k]) % l
    projectors = np.einsum("ik,kab->iab", quotients, powers[:s]) % l
    at_root = np.ones(s, dtype=np.int64)
    for k in range(s - 2, -1, -1):
        at_root = (quotients[:, k] + roots * at_root) % l
    dims = np.trace(projectors, axis1=1, axis2=2) % l * _inverses_mod(at_root, l) % l
    lines = np.flatnonzero(dims == 1)
    spaces: list = [None] * s
    # the eigenlines together: any non-zero projector row, scaled to a 1 at
    # its first non-zero entry
    rows = projectors[lines, projectors[lines].any(axis=2).argmax(axis=1)] @ basis % l
    leads = (rows != 0).argmax(axis=1)
    rows = rows * _inverses_mod(rows[np.arange(len(lines)), leads], l)[:, None] % l
    for i, row, lead in zip(lines.tolist(), rows, leads.tolist()):
        spaces[i] = (row[None, :], [lead])
    for i in np.flatnonzero(dims > 1).tolist():
        spaces[i] = _rref(projectors[i] @ basis % l, l)
        if len(spaces[i][0]) != dims[i]:
            raise CharacterTableError("an eigenspace's rank differs from its projector's trace")
    return spaces


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
    mults: list = [None] * len(cycles)
    by_length: dict[int, list[int]] = {}
    for k, power_class in enumerate(cycles):
        by_length.setdefault(len(power_class), []).append(k)
    for n_k, classes in by_length.items():  # the classes of one cycle length at once
        zeta_powers = root_powers[:: exponent // n_k]
        steps = np.arange(n_k)
        inverse_dft = zeta_powers[-np.outer(steps, steps) % n_k]
        at_powers = chi_mod[:, np.array([cycles[k] for k in classes])]
        mult = at_powers @ inverse_dft % l * pow(n_k, -1, l) % l
        if (mult > degrees[:, None, None]).any():
            raise CharacterTableError("eigenvalue multiplicities failed to lift")
        if (mult @ zeta_powers % l != chi_mod[:, classes]).any():
            raise CharacterTableError("lifted value does not reduce back mod l")
        for slot, k in enumerate(classes):
            mults[k] = mult[:, slot]
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
    held = np.zeros(exponent, dtype=bool)  # the powers of zeta_E that get a term
    for n, classes in by_conductor.items():
        # chi_a conj(chi_b) has coefficient sum_j a_j b_(j-d) at zeta_n^d,
        # non-zero only for the residues d of j - j' with j, j' < width
        width = coeffs[classes[0]].shape[1]
        hit = np.unique(np.arange(1 - width, width) % n)
        shift = (np.arange(width)[:, None] - hit) % n
        stacked = np.array([coeffs[k] for k in classes])
        padded = np.zeros((len(classes), chars, n), dtype=np.int64)
        padded[:, :, :width] = stacked
        weighted = stacked * np.array([sizes[k] for k in classes])[:, None, None]
        left = weighted.transpose(1, 0, 2).reshape(chars, len(classes) * width)
        right = padded[:, :, shift].transpose(0, 2, 1, 3).reshape(len(classes) * width, chars * len(hit))
        ring[:, :, hit * (exponent // n)] += (left @ right).reshape(chars, chars, len(hit))
        held[hit * (exponent // n)] = True
    gram = ring[:, :, held] @ basis[held]
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
