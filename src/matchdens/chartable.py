"""Exact character tables of small finite groups.

The class-algebra method: class sums span the center of the group algebra, so
their structure-constant matrices commute and share a full set of eigenvectors
whose entries are the central character values.  We find those eigenvectors
over a prime field F_l with l = 1 (mod exponent) and l > 2*ceil(sqrt(|G|)),
recover degrees and character values mod l, then lift each value to an exact
sum of roots of unity by finite-field Fourier inversion over the cyclic group
generated by the class representative.  One reduced row echelon form over F_l
(`_rref`) gives both the eigenspace kernels and the canonical basis of each
eigenspace.  Each representative's cycle of power classes is walked once per
table; the exponent is the lcm of the cycle lengths.  Row orthogonality is
re-verified exactly, with groupcore.inner_product, before the table is
returned.
"""

from __future__ import annotations

from math import isqrt, lcm

from .cyclotomic import CycValue
from .groupcore import ClassFunction, FiniteGroup, inner_product
from .primes import is_prime, primitive_root

MAX_CLASSES = 30
MAX_ORDER = 2000
DEFAULT_MODULUS_BOUND = 10**6


class CharacterTableError(ValueError):
    """The group is outside the supported range or the method failed."""


# -- small dense linear algebra over F_l


def _mat_vec(m: list[list[int]], v: list[int], l: int) -> list[int]:
    return [sum(mi[j] * v[j] for j in range(len(v))) % l for mi in m]


def _charpoly_hessenberg(m: list[list[int]], l: int) -> list[int]:
    """Characteristic polynomial mod l, coefficients low -> high, monic."""
    n = len(m)
    h = [row[:] for row in m]
    for col in range(n - 2):
        pivot = next((r for r in range(col + 1, n) if h[r][col] % l), None)
        if pivot is None:
            continue
        if pivot != col + 1:
            h[pivot], h[col + 1] = h[col + 1], h[pivot]
            for row in h:
                row[pivot], row[col + 1] = row[col + 1], row[pivot]
        inv = pow(h[col + 1][col], -1, l)
        for r in range(col + 2, n):
            f = h[r][col] * inv % l
            if f:
                for j in range(n):
                    h[r][j] = (h[r][j] - f * h[col + 1][j]) % l
                for row in h:
                    row[col + 1] = (row[col + 1] + f * row[r]) % l
    # recurrence on leading principal minors of xI - H
    polys: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = [(-h[k - 1][k - 1] * c) % l for c in prev] + [0]
        for idx, c in enumerate(prev):
            cur[idx + 1] = (cur[idx + 1] + c) % l
        subdiag = 1
        for i in range(k - 2, -1, -1):
            subdiag = subdiag * h[i + 1][i] % l
            coeff = h[i][k - 1] * subdiag % l
            if coeff:
                for idx, c in enumerate(polys[i]):
                    cur[idx] = (cur[idx] - coeff * c) % l
        polys.append(cur)
    return polys[n]


def _poly_roots(poly: list[int], l: int) -> list[int]:
    roots = []
    for x in range(l):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % l
        if acc == 0:
            roots.append(x)
    return roots


def _rref(rows: list[list[int]], l: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_l: the non-zero rows, and their pivot
    columns in ascending order.  The rows are the canonical basis of the row
    span; the kernel of the input is read off the free columns."""
    a = [[x % l for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(len(a[0]) if a else 0):
        top = len(pivots)
        if top == len(a):
            break
        sel = next((r for r in range(top, len(a)) if a[r][col]), None)
        if sel is None:
            continue
        a[top], a[sel] = a[sel], a[top]
        inv = pow(a[top][col], -1, l)
        pivot_row = a[top] = [x * inv % l for x in a[top]]
        for r, row in enumerate(a):
            f = row[col]
            if f and r != top:
                a[r] = [(x - f * y) % l for x, y in zip(row, pivot_row)]
        pivots.append(col)
    return a[: len(pivots)], pivots


def _nullspace(m: list[list[int]], l: int) -> list[list[int]]:
    """Basis of the kernel of m over F_l, one vector per free column."""
    reduced, pivots = _rref(m, l)
    cols = len(m[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc] % l
        basis.append(v)
    return basis


def _coords_in_basis(basis: list[list[int]], vec: list[int], l: int) -> list[int]:
    """Coordinates of vec in a reduced-echelon column basis (must lie in the span)."""
    pivot_rows = [next(r for r in range(len(b)) if b[r]) for b in basis]
    coords = [vec[pr] % l for pr in pivot_rows]
    residual = vec[:]
    for c, b in zip(coords, basis):
        if c:
            residual = [(x - c * y) % l for x, y in zip(residual, b)]
    if any(residual):
        raise CharacterTableError("class-sum matrices do not preserve a split subspace")
    return coords


# -- the table computation


def _choose_modulus(order: int, exponent: int) -> int:
    floor = 2 * isqrt(order - 1) + 2 if order > 1 else 2
    l = exponent + 1
    while l <= DEFAULT_MODULUS_BOUND:
        if l > floor and (exponent == 1 or l % exponent == 1) and is_prime(l):
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
    class_of = part.class_of
    r = len(part)
    if r > MAX_CLASSES:
        raise CharacterTableError(f"{r} classes exceeds bound {MAX_CLASSES}")
    n = group.order
    cycles = [_power_classes(group, class_of, rep) for rep in part.representatives]
    exponent = lcm(*map(len, cycles))
    l = _choose_modulus(n, exponent)
    root = pow(primitive_root(l), (l - 1) // exponent, l)  # of exact order exponent

    inv_of = [group.inv(i) for i in range(n)]
    sizes = part.sizes
    reps = part.representatives
    identity_class = class_of[group.identity]

    # structure constants: A[i][j][k] = #{x in C_i with x^(-1) z_k in C_j}
    a_mats = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, z in enumerate(reps):
        for i, members in enumerate(part.classes):
            row_k = k
            for x in members:
                j = class_of[group.mul(inv_of[x], z)]
                a_mats[i][j][row_k] += 1

    # split the r-dimensional space into common eigenlines of the A_i
    spaces = [[[int(i == t) for i in range(r)] for t in range(r)]]
    for i in range(r):
        if all(len(s) == 1 for s in spaces):
            break
        spaces = _split_spaces(spaces, a_mats[i], l)
    if not all(len(s) == 1 for s in spaces):
        raise CharacterTableError("class-sum matrices failed to separate characters")

    characters = []
    g_mod = n % l
    for (vec,) in spaces:
        omega = _normalize_at(vec, identity_class, l)
        # 1/d^2 = (1/|G|) sum_k omega_k omega_{k*} / |C_k|
        inv_dsq = 0
        for k in range(r):
            kstar = class_of[inv_of[reps[k]]]
            inv_dsq = (inv_dsq + omega[k] * omega[kstar] * pow(sizes[k], -1, l)) % l
        dsq = g_mod * pow(inv_dsq, -1, l) % l
        degree = next((d for d in range(1, isqrt(n) + 1) if d * d % l == dsq), None)
        if degree is None:
            raise CharacterTableError("degree recovery failed (modulus too small?)")
        chi_mod = [degree * omega[k] * pow(sizes[k], -1, l) % l for k in range(r)]
        values = _lift_values(cycles, chi_mod, degree, exponent, root, l)
        characters.append((degree, values))

    table = [
        ClassFunction(group, values, name=f"chi{deg}") for deg, values in characters
    ]
    _verify_table(group, table)
    table.sort(
        key=lambda cf: (
            int(cf.degree().as_rational()),
            [v.sort_key(exponent) for v in cf.values],
        )
    )
    for idx, cf in enumerate(table):
        cf.name = f"chi{idx}"
    return table


def _split_spaces(spaces, mat, l):
    out = []
    for basis in spaces:
        if len(basis) == 1:
            out.append(basis)
            continue
        images = [_mat_vec(mat, b, l) for b in basis]
        restricted_cols = [_coords_in_basis(basis, img, l) for img in images]
        m = len(basis)
        restricted = [[restricted_cols[cc][rr] for cc in range(m)] for rr in range(m)]
        for lam in sorted(_poly_roots(_charpoly_hessenberg(restricted, l), l)):
            shifted = [
                [(restricted[rr][cc] - (lam if rr == cc else 0)) % l for cc in range(m)]
                for rr in range(m)
            ]
            null = _nullspace(shifted, l)
            if not null:
                continue
            lifted = [
                [
                    sum(nv[t] * basis[t][row] for t in range(m)) % l
                    for row in range(len(basis[0]))
                ]
                for nv in null
            ]
            out.append(_rref(lifted, l)[0])
    return out


def _normalize_at(vec: list[int], idx: int, l: int) -> list[int]:
    pivot = vec[idx] % l
    if pivot == 0:
        raise CharacterTableError("eigenvector vanishes on the identity class")
    inv = pow(pivot, -1, l)
    return [x * inv % l for x in vec]


def _power_classes(group, class_of, rep) -> list[int]:
    """Classes of rep^0, rep^1, ..., one per power up to the order of rep."""
    out, cur = [], group.identity
    while True:
        out.append(class_of[cur])
        cur = group.mul(cur, rep)
        if cur == group.identity:
            return out


def _lift_values(cycles, chi_mod, degree, exponent, root, l):
    """Exact values from mod-l values via Fourier inversion on each rep's cycle
    of power classes; root has exact order exponent mod l."""
    values = []
    for k, power_class in enumerate(cycles):
        n_k = len(power_class)
        zeta = pow(root, exponent // n_k, l)
        zeta_inv = pow(zeta, -1, l)
        n_inv = pow(n_k, -1, l)
        coeffs = {}
        check = 0
        for j in range(n_k):
            acc = 0
            w = 1
            step = pow(zeta_inv, j, l)
            for t in range(n_k):
                acc = (acc + chi_mod[power_class[t]] * w) % l
                w = w * step % l
            mult = acc * n_inv % l
            if mult > degree:
                raise CharacterTableError("eigenvalue multiplicities failed to lift")
            if mult:
                coeffs[j] = mult
                check = (check + mult * pow(zeta, j, l)) % l
        if check != chi_mod[k] % l:
            raise CharacterTableError("lifted value does not reduce back mod l")
        values.append(CycValue(n_k, coeffs))
    return values


def _verify_table(group, table) -> None:
    degs = [int(cf.degree().as_rational()) for cf in table]
    if sum(d * d for d in degs) != group.order:
        raise CharacterTableError("degrees do not satisfy sum(d^2) = |G|")
    for a, cfa in enumerate(table):
        for b in range(a, len(table)):
            inner = inner_product(cfa, table[b])
            if inner != (1 if a == b else 0):
                raise CharacterTableError(
                    f"orthogonality fails for characters {a}, {b}: <a,b> = {inner}"
                )


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
