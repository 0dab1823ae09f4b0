"""Explicit finite-group machinery.

A group is a multiplication of element indices 0 .. order-1: `op(i, j)`
returns the index of the product, elementwise over numpy int arrays (plain
ints work too).  Every product the module takes goes through it: `mul`, the
dense table, the identity, the inverses, the conjugation rows and the
character table's right-regular permutations; generators are element
indices too.  Element handles (hashable values such as matrices as tuples)
appear only at the edges: `element`, `elements`, `index_of` and pulling
class functions back along handle maps.

Conjugacy classes come from one label per element, an integer in
[0, order) (ConjClassPartition.from_labels, which refuses any other label
and numbers classes by least index in one O(order) pass, with no sort).
The labels are a group's `class_labels` hook when it has one, otherwise the
least index of each orbit under conjugation: by the generators when there
are any, else as the column minima of all conjugation rows: one pass of
order^2 products in row blocks on the table, with no order^2 temporary
beside the table.
Partitions, quotient maps and subgroups are read-only int64 index arrays,
read as Python ints only by exact arithmetic and JSON.  Class functions with
exact cyclotomic values, direct and fiber products (multiplied through the
factors' products), quotient maps, and the exact matching / zero fractions
live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .cyclotomic import CycValue, hermitian_sum

TABLE_LIMIT = 4096  # dense multiplication table below this order
FULL_ASSOCIATIVITY_LIMIT = 200  # exhaustive associativity check up to this order
FULL_HOMOMORPHISM_LIMIT = 2048  # exhaustive homomorphism check up to this source order
ORBIT_NO_GENERATORS_LIMIT = 20000  # orbit labelling without generators up to this order
ORDER_LIMIT = 10**6
BLOCK_ENTRIES = 1 << 14  # products per call when rows go in blocks: bounds the temporaries


class InvalidGroupError(ValueError):
    """The supplied elements/operation do not form a group."""


class GroupMismatchError(ValueError):
    """Operands are defined over different groups."""


class OrderBoundExceededError(ValueError):
    """A construction would exceed the configured order bound."""


def _checked_indices(indices, order: int, what: str = "element indices") -> np.ndarray:
    """The given indices as a 1-D int64 array, refused with InvalidGroupError
    (naming them as `what`) unless every one is an integer in [0, order)."""
    out = np.asarray(indices)
    if out.ndim != 1:
        raise InvalidGroupError(f"{what} must form a 1-D array, not {out.ndim}-D")
    if out.size and out.dtype.kind not in "iu":
        raise InvalidGroupError(f"{what} must be integers, not {out.dtype}")
    out = out.astype(np.int64, copy=False)
    if out.size and (out.min() < 0 or out.max() >= order):
        raise InvalidGroupError(f"one of the {what} falls outside [0, {order})")
    return out


def _readonly(indices) -> np.ndarray:
    """A read-only int64 copy of the given indices."""
    out = np.array(indices, dtype=np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ConjClassPartition:
    """Conjugacy classes by least element index, as read-only int64 arrays."""

    representatives: np.ndarray
    sizes: np.ndarray
    class_of: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    @classmethod
    def from_labels(cls, labels) -> ConjClassPartition:
        """Classes are the sets of elements sharing a label, ordered by their
        least element index.

        Labels are integers in [0, n), n the number of elements; anything
        else is refused with InvalidGroupError.  One scatter-min finds each
        label's least element, which is its class representative: O(n), no
        sort.
        """
        labels = _checked_indices(labels, np.size(labels), "class labels")
        n = len(labels)
        idx = np.arange(n)
        least = np.full(n, n)
        np.minimum.at(least, labels, idx)
        first = least[labels]  # each element's representative
        reps = np.flatnonzero(first == idx)
        number = np.empty(n, dtype=np.int64)
        number[reps] = np.arange(len(reps))
        class_of = number[first]
        return cls(*map(_readonly, (reps, np.bincount(class_of), class_of)))


def _least_in_orbits(n: int, rows: Callable[[], Iterable[np.ndarray]]) -> np.ndarray:
    """Least index in the orbit of each of 0 .. n-1 under the maps that
    rows() yields (blocks of index arrays x -> row[x]; called once per pass).

    For each map, the larger of the labels of x and row[x] is pointed at the
    smaller; pointer jumping (least[least]) then moves every element to its
    label's label.  A pass that changes nothing leaves each orbit on its
    least index.
    """
    least = np.arange(n)
    while True:
        before = least.copy()
        for row in rows():
            ours, theirs = least, least[row]
            np.minimum.at(least, np.maximum(ours, theirs), np.minimum(ours, theirs))
        while not np.array_equal(jumped := least[least], least):
            least = jumped
        if np.array_equal(least, before):
            return least


class FiniteGroup:
    """A finite group whose operation multiplies element indices.

    `op(i, j)` returns the index of the product of elements i and j,
    elementwise over numpy int arrays that broadcast together; a result
    outside [0, order) raises InvalidGroupError.  `elements` gives the
    handles: a sequence of hashable values, or a 2-D int array whose rows,
    as tuples of ints, are the handles (built only when asked for).  Up to
    TABLE_LIMIT elements, `ensure_table` caches every product in an int32
    table; `mul` then reads it, and so do the orbit search without
    generators, validation and the commutator subgroup, which ask for it.
    A group whose table fits one block of BLOCK_ENTRIES products builds it
    at construction, so a small group calls `op` once.

    `generators`, given as element indices, enables scalable conjugacy
    computations; they are checked to be indices at construction and to
    generate the group at their first use.  Without them each class's least
    index is a column minimum over every conjugation row: one pass of
    order^2 products, in row blocks on the table, refused above
    ORBIT_NO_GENERATORS_LIMIT elements.  `class_labels(group)`, when given,
    returns one integer label in [0, order) per element such that two
    elements are conjugate exactly when their labels are equal; any other
    label is refused with InvalidGroupError.
    """

    def __init__(
        self,
        elements: Sequence[Hashable] | np.ndarray,
        op: Callable,
        *,
        name: str = "",
        generators: Sequence[int] | None = None,
        class_labels: Callable | None = None,
    ):
        if isinstance(elements, np.ndarray) and elements.ndim != 2:
            raise InvalidGroupError("an array of element handles must be 2-D")
        self.order = len(elements)
        if self.order == 0:
            raise InvalidGroupError("a group needs at least one element")
        if self.order > ORDER_LIMIT:
            raise OrderBoundExceededError(f"order {self.order} exceeds bound {ORDER_LIMIT}")
        self._elements = elements if isinstance(elements, np.ndarray) else tuple(elements)
        self._handles = None if isinstance(elements, np.ndarray) else self._elements
        self._op = op
        self.name = name
        self._index: dict | None = None
        self._table: np.ndarray | None = None
        self._inverses: np.ndarray | None = None
        self._classes: ConjClassPartition | None = None
        self._validated = False
        self._class_labels = class_labels
        self._generators = None if generators is None else _checked_indices(generators, self.order)
        self._generator_indices: tuple[int, ...] | None = None
        if self.order**2 <= BLOCK_ENTRIES:  # the whole table in one op call
            self.ensure_table()
        self.identity = self._find_identity()

    # -- handles

    def element(self, i: int) -> Hashable:
        e = self._elements[i]
        return tuple(e.tolist()) if isinstance(self._elements, np.ndarray) else e

    @property
    def elements(self) -> tuple:
        """Every element's handle in index order, built at most once."""
        if self._handles is None:
            self._handles = tuple(map(tuple, self._elements.tolist()))
        return self._handles

    def index_of(self, handle: Hashable) -> int:
        if self._index is None:
            index = {e: i for i, e in enumerate(self.elements)}
            if len(index) != self.order:
                raise InvalidGroupError(f"{self} has duplicate element handles")
            self._index = index
        try:
            return self._index[handle]
        except KeyError:
            raise InvalidGroupError(f"{handle!r} is not an element of {self}") from None

    def __contains__(self, handle: Hashable) -> bool:
        try:
            self.index_of(handle)
        except InvalidGroupError:
            return False
        return True

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"

    @property
    def generator_indices(self) -> tuple[int, ...] | None:
        """Indices of the declared generators, checked once to generate the group."""
        if self._generators is not None and self._generator_indices is None:
            if len(self.subgroup_closure(self._generators)) != self.order:
                raise InvalidGroupError(f"the declared generators do not generate {self}")
            self._generator_indices = tuple(self._generators.tolist())
        return self._generator_indices

    # -- multiplication on indices

    def _find_identity(self) -> int:
        """The first e with e x0 = x0 = x0 e, x0 being element 0.

        Candidates go in doubling blocks of indices from 0 (64, then 128,
        ...): e x0 over the block, x0 e only where that hit, and the search
        stops at the first block with a two-sided hit, which is the least e
        of all.  An identity at index k costs O(k) products, not O(order).
        """
        start, size = 0, 64
        while start < self.order:
            block = np.arange(start, min(start + size, self.order))
            hits = block[self.mul(block, 0) == 0]
            hits = hits[self.mul(0, hits) == 0]
            if hits.size:
                return int(hits[0])
            start, size = start + size, 2 * size
        raise InvalidGroupError("no identity element found")

    def mul(self, i, j):
        """Index of the product of elements i and j, elementwise over int arrays."""
        if self._table is not None:
            prod = self._table[i, j]
        else:
            prod = np.asarray(self._op(i, j))
            if prod.size and (prod.min() < 0 or prod.max() >= self.order):
                raise InvalidGroupError(f"a product falls outside [0, {self.order})")
        return int(prod) if prod.ndim == 0 else prod

    def _row_blocks(self, indices) -> Iterator[np.ndarray]:
        """Consecutive blocks of the given indices, each small enough that one
        row per index holds at most BLOCK_ENTRIES products (one row at least)."""
        indices = np.asarray(indices, dtype=np.int64)
        step = max(1, BLOCK_ENTRIES // self.order)
        return (indices[k:k + step] for k in range(0, len(indices), step))

    def ensure_table(self) -> None:
        """Materialize the dense multiplication table (order <= TABLE_LIMIT only)."""
        if self._table is not None or self.order > TABLE_LIMIT:
            return
        idx = np.arange(self.order)
        table = np.empty((self.order, self.order), dtype=np.int32)
        for rows in self._row_blocks(idx):  # no order^2 temporaries
            table[rows] = self.mul(rows[:, None], idx)
        self._table = table

    def inv(self, i):
        """Index of the inverse of element i, elementwise over int arrays.

        All inverses are computed at the first call as x^(order - 1), by
        square-and-multiply over every element at once (x^order = 1 in a
        group), and checked two-sided once.
        """
        if self._inverses is None:
            idx = np.arange(self.order)
            power, base, k = np.full(self.order, self.identity), idx, self.order - 1
            while k:
                if k & 1:
                    power = self.mul(power, base)
                k >>= 1
                if k:
                    base = self.mul(base, base)
            e = self.identity
            bad = np.flatnonzero((self.mul(idx, power) != e) | (self.mul(power, idx) != e))
            if bad.size:
                raise InvalidGroupError(f"element index {bad[0]} has no two-sided inverse")
            power.setflags(write=False)
            self._inverses = power
        inverse = self._inverses[i]
        return int(inverse) if np.ndim(inverse) == 0 else inverse

    # -- structure checks

    def validate(self) -> None:
        """Structural sanity: identity, inverses, closure; exhaustive associativity
        up to order FULL_ASSOCIATIVITY_LIMIT, seeded-sample associativity above."""
        if self._validated:
            return
        n, e = self.order, self.identity
        idx = np.arange(n)
        if not ((self.mul(e, idx) == idx) & (self.mul(idx, e) == idx)).all():
            raise InvalidGroupError("identity is not two-sided neutral")
        if n <= FULL_ASSOCIATIVITY_LIMIT:
            self.ensure_table()
            t = self._table.astype(np.uint8)  # indices < 200: each n^3 array < 8 MB
            # (ab)c against a(bc) for every triple
            bad = np.argwhere(t[t] != t[idx[:, None, None], t])
        else:
            triples = np.random.default_rng(0).integers(0, n, size=(2000, 3))
            a, b, c = triples.T
            bad = triples[self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c))]
        if len(bad):
            raise InvalidGroupError(f"associativity fails at indices {tuple(bad[0].tolist())}")
        self.inv(idx)  # x^(order - 1), which needs associativity to be the inverse
        self._validated = True

    def center_indices(self) -> np.ndarray:
        gens = self.generator_indices or range(self.order)
        idx = np.arange(self.order)
        central = np.ones(self.order, dtype=bool)
        for g in gens:
            central &= self.mul(idx, g) == self.mul(g, idx)
        return _readonly(np.flatnonzero(central))

    # -- conjugacy

    def conjugacy_classes(self) -> ConjClassPartition:
        if self._classes is not None:
            return self._classes
        if self.order <= 64:
            self.validate()  # cheap here; reports broken tables as invalid-group
        if self._class_labels is not None:
            labels = np.asarray(self._class_labels(self))
        else:
            labels = self._orbit_labels()
        if labels.shape != (self.order,):
            raise InvalidGroupError(
                f"class labels have shape {labels.shape}, expected ({self.order},)"
            )
        self._classes = ConjClassPartition.from_labels(labels)
        return self._classes

    def _conjugation(self, gs: np.ndarray) -> np.ndarray:
        """Row k is the permutation x -> g x g^-1 of element indices, g = gs[k]."""
        return self.mul(self.mul(gs[:, None], np.arange(self.order)), self.inv(gs)[:, None])

    def _orbit_labels(self) -> np.ndarray:
        """Least element index of every element's conjugacy class.

        With generators, orbits under conjugation by them.  Without, every
        element conjugates: the class of x is {g x g^-1 : g in G}, so its least
        index is a column minimum of the conjugation rows, kept running over
        one block of rows at a time on the table.  That is one exact pass of
        order^2 products, and nothing of size order^2 but the table.
        """
        n = self.order
        gens = self.generator_indices
        if gens is None:
            if n > ORBIT_NO_GENERATORS_LIMIT:
                raise OrderBoundExceededError(
                    "conjugacy of a large group needs an explicit generating set"
                )
            self.ensure_table()
            least = np.arange(n)
            for gs in self._row_blocks(range(n)):
                np.minimum(least, self._conjugation(gs).min(axis=0), out=least)
            return least
        rows = self._conjugation(np.array(gens))
        return _least_in_orbits(n, lambda: [rows])

    def subgroup_closure(self, seed_indices: Sequence[int]) -> np.ndarray:
        """Indices of the subgroup generated by the given element indices: the
        orbit of the identity under right multiplication by them."""
        idx = np.arange(self.order)
        blocks = list(self._row_blocks(np.unique(_checked_indices(seed_indices, self.order))))
        least = _least_in_orbits(self.order, lambda: (self.mul(idx, s[:, None]) for s in blocks))
        return _readonly(np.flatnonzero(least == least[self.identity]))


# -- products


def _pair_group(g: FiniteGroup, h: FiniteGroup, pairs: np.ndarray, **kwargs) -> FiniteGroup:
    """Pairs (x, y) of elements of two factor groups, multiplied componentwise.

    Element k is the pair of factor indices divmod(pairs[k], |h|), with
    `pairs` ascending, so elements run through g's index, then h's.  A
    product of pairs is looked up by its code through `position`; a pair
    outside `pairs` reads -1, which `mul` refuses.
    """
    nh = h.order
    left, right = np.divmod(pairs, nh)
    position = np.full(g.order * nh, -1)
    position[pairs] = np.arange(len(pairs))

    def op(x, y):
        return position[g.mul(left[x], left[y]) * nh + h.mul(right[x], right[y])]

    g_els, h_els = g.elements, h.elements
    elements = [(g_els[a], h_els[b]) for a, b in zip(left.tolist(), right.tolist())]
    return FiniteGroup(elements, op, **kwargs)


def direct_product(g: FiniteGroup, h: FiniteGroup, *, name: str = "") -> FiniteGroup:
    """Componentwise product group on pair handles.

    Conjugacy classes of a direct product are exactly the pairs of factor
    classes, so each element is labelled by its pair of factor classes rather
    than by orbit search.
    """
    if g.order * h.order > ORDER_LIMIT:
        raise OrderBoundExceededError(
            f"product order {g.order * h.order} exceeds bound {ORDER_LIMIT}"
        )
    gens = None
    if g.generator_indices is not None and h.generator_indices is not None:
        gens = [i * h.order + h.identity for i in g.generator_indices]
        gens += [g.identity * h.order + j for j in h.generator_indices]

    def paired_labels(product: FiniteGroup) -> np.ndarray:
        part_g, part_h = g.conjugacy_classes(), h.conjugacy_classes()
        return np.add.outer(part_g.class_of * len(part_h), part_h.class_of).ravel()

    return _pair_group(
        g,
        h,
        np.arange(g.order * h.order),
        name=name or f"({g.name or 'G'} x {h.name or 'H'})",
        generators=gens,
        class_labels=paired_labels,
    )


@dataclass
class QuotientMap:
    """A surjective homomorphism from source onto target, as a read-only int64 index map."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: np.ndarray

    def __post_init__(self):
        self.mapping = _readonly(_checked_indices(self.mapping, self.target.order))
        if len(self.mapping) != self.source.order:
            raise InvalidGroupError("mapping must cover every source element")
        self.check()

    def check(self) -> None:
        """Verify surjectivity and the homomorphism law (exhaustively when small)."""
        if len(np.unique(self.mapping)) != self.target.order:
            raise InvalidGroupError("map is not surjective")
        n = self.source.order
        image, idx = self.mapping, np.arange(n)
        if n <= FULL_HOMOMORPHISM_LIMIT:
            blocks = self.source._row_blocks(idx)
            pairs = (np.broadcast_arrays(rows[:, None], idx) for rows in blocks)
        else:
            pairs = [np.random.default_rng(0).integers(0, n, size=(4000, 2)).T]
        for i, j in pairs:
            bad = np.argwhere(image[self.source.mul(i, j)] != self.target.mul(image[i], image[j]))
            if len(bad):
                k = tuple(bad[0])
                raise InvalidGroupError(f"not a homomorphism at indices ({i[k]},{j[k]})")


def quotient_by(group: FiniteGroup, normal_indices: Sequence[int], *, name: str = "") -> QuotientMap:
    """Quotient map G -> G/N for a normal subgroup given by element indices.

    Cosets are labelled by their minimal element index, which also fixes the
    ordering of the quotient's elements; the quotient multiplies coset
    representatives in G.
    """
    members = np.unique(_checked_indices(normal_indices, group.order))
    in_n = np.zeros(group.order, dtype=bool)
    in_n[members] = True
    if not in_n[group.identity]:
        raise InvalidGroupError("normal subgroup must contain the identity")
    for rows in group._row_blocks(members):
        if not in_n[group.mul(rows[:, None], members)].all():
            raise InvalidGroupError("subgroup is not closed under multiplication")
    for gs in group._row_blocks(group.generator_indices or range(group.order)):
        if not in_n[group.mul(group.mul(gs[:, None], members), group.inv(gs)[:, None])].all():
            raise InvalidGroupError("subgroup is not normal")
    coset_of = np.full(group.order, -1)
    for i in range(group.order):
        if coset_of[i] < 0:
            coset = group.mul(i, members)
            coset_of[coset] = coset.min()
    reps = np.unique(coset_of)
    mapping = np.searchsorted(reps, coset_of)

    def op(a, b):
        return mapping[group.mul(reps[a], reps[b])]

    target = FiniteGroup(reps.tolist(), op, name=name or f"{group.name or 'G'}/N")
    return QuotientMap(source=group, target=target, mapping=mapping)


def commutator_subgroup(group: FiniteGroup) -> np.ndarray:
    """Indices of the derived subgroup (closure of all commutators)."""
    if group.order > TABLE_LIMIT:
        raise OrderBoundExceededError("commutator subgroup needs order <= TABLE_LIMIT")
    group.ensure_table()
    idx = np.arange(group.order)
    inverses = group.inv(idx)
    commutators = np.zeros(group.order, dtype=bool)
    for rows in group._row_blocks(idx):
        left = group.mul(rows[:, None], idx)
        commutators[group.mul(left, group.mul(inverses[rows, None], inverses))] = True
    return group.subgroup_closure(np.flatnonzero(commutators))


def abelianization(group: FiniteGroup) -> QuotientMap:
    """Quotient map onto G/[G,G]."""
    return quotient_by(group, commutator_subgroup(group), name=f"{group.name or 'G'}^ab")


def fiber_product(
    g: FiniteGroup,
    h: FiniteGroup,
    qg: QuotientMap,
    qh: QuotientMap,
    *,
    name: str = "",
) -> FiniteGroup:
    """Subgroup {(x, y) : qg(x) = qh(y)} of the direct product.

    Both quotient maps must land in the same target group object; the result
    has order |g|*|h|/|target|.
    """
    if qg.source is not g or qh.source is not h:
        raise GroupMismatchError("quotient maps must start at the given factors")
    if qg.target is not qh.target:
        raise GroupMismatchError("quotient maps must share one target group")
    expected = g.order * h.order // qg.target.order
    if expected > ORDER_LIMIT:
        raise OrderBoundExceededError("fiber product exceeds the order bound")
    # h's indices grouped by image, ascending within each group
    counts = np.bincount(qh.mapping, minlength=qh.target.order)
    over = np.split(np.argsort(qh.mapping, kind="stable"), np.cumsum(counts)[:-1])
    pairs = np.concatenate([i * h.order + over[t] for i, t in enumerate(qg.mapping)])
    if len(pairs) != expected:
        raise InvalidGroupError(
            f"fiber product order {len(pairs)} != |g||h|/|target| = {expected}"
        )
    return _pair_group(g, h, pairs, name=name or f"({g.name or 'G'} x_T {h.name or 'H'})")


# -- class functions


class ClassFunction:
    """Exact-valued function constant on the conjugacy classes of one group."""

    def __init__(self, group: FiniteGroup, values: Sequence[CycValue], *, name: str = ""):
        part = group.conjugacy_classes()
        if len(values) != len(part):
            raise ValueError(
                f"need one value per class: got {len(values)}, expected {len(part)}"
            )
        self.group = group
        self.values = tuple(v if isinstance(v, CycValue) else CycValue.from_rational(v) for v in values)
        self.name = name

    @classmethod
    def from_handle_function(cls, group: FiniteGroup, fn: Callable, *, name: str = "") -> ClassFunction:
        """Build from any function of element handles that is constant on classes."""
        part = group.conjugacy_classes()
        return cls(group, [fn(group.element(r)) for r in part.representatives], name=name)

    def value_at(self, element_index: int) -> CycValue:
        return self.values[self.group.conjugacy_classes().class_of[element_index]]

    def degree(self) -> CycValue:
        return self.value_at(self.group.identity)

    def __repr__(self) -> str:
        return f"ClassFunction({self.name or 'chi'} on {self.group!r})"


def pullback(cf: ClassFunction, source: FiniteGroup, handle_map: Callable, *, name: str = "") -> ClassFunction:
    """Pull a class function back along a homomorphism given on handles."""
    target = cf.group

    def value(handle):
        return cf.value_at(target.index_of(handle_map(handle)))

    return ClassFunction.from_handle_function(source, value, name=name)


def _require_same_group(x: ClassFunction, y: ClassFunction) -> FiniteGroup:
    if x.group is not y.group:
        raise GroupMismatchError("class functions live on different groups")
    return x.group


def inner_product(x: ClassFunction, y: ClassFunction) -> CycValue:
    """Exact (1/|G|) sum_k |C_k| x_k conj(y_k) over the conjugacy classes C_k."""
    group = _require_same_group(x, y)
    sizes = group.conjugacy_classes().sizes.tolist()
    return hermitian_sum(sizes, x.values, y.values) * Fraction(1, group.order)


def matching_fraction(x: ClassFunction, y: ClassFunction) -> Fraction:
    """Exact fraction of group elements where the two class functions agree."""
    group = _require_same_group(x, y)
    part = group.conjugacy_classes()
    matched = sum(
        size for size, vx, vy in zip(part.sizes.tolist(), x.values, y.values) if vx == vy
    )
    return Fraction(matched, group.order)


def zero_fraction(x: ClassFunction) -> Fraction:
    """Exact fraction of group elements where the class function vanishes."""
    part = x.group.conjugacy_classes()
    zero = sum(size for size, v in zip(part.sizes.tolist(), x.values) if v.is_zero())
    return Fraction(zero, x.group.order)


# -- nilpotency


def is_nilpotent(group: FiniteGroup) -> bool:
    """True iff the ascending central series reaches the whole group."""
    if group.order > 10**4:
        raise OrderBoundExceededError("nilpotency check is bounded at order 1e4")
    current = group.center_indices()
    if not len(current):
        raise InvalidGroupError("group has an empty center")
    while len(current) < group.order:
        q = quotient_by(group, current)
        lifted = np.flatnonzero(np.isin(q.mapping, q.target.center_indices()))
        if len(lifted) == len(current):
            return False
        current = lifted
    return True
