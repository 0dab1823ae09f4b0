"""Explicit finite-group machinery.

Groups are finite sets of hashable element handles with a multiplication
callable; every element also gets a stable integer index (its position in the
element list), and all heavy computations run on indices.  Conjugacy classes
come from one label per element (ConjClassPartition.from_labels): a group's
`class_labels` hook when it has one, otherwise the least index of each orbit
under conjugation.  Class functions with exact cyclotomic values, direct and
fiber products (tables assembled from the factors' tables), quotient maps, and
the exact matching / zero fractions live here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Sequence

import numpy as np

from .cyclotomic import CycValue, hermitian_sum

TABLE_LIMIT = 4096  # dense multiplication table below this order
FULL_ASSOCIATIVITY_LIMIT = 200  # exhaustive associativity check up to this order
FULL_HOMOMORPHISM_LIMIT = 2048  # exhaustive homomorphism check up to this source order
ORBIT_NO_GENERATORS_LIMIT = 20000  # orbit labelling without generators up to this order
ORDER_LIMIT = 10**6


class InvalidGroupError(ValueError):
    """The supplied elements/operation do not form a group."""


class GroupMismatchError(ValueError):
    """Operands are defined over different groups."""


class OrderBoundExceededError(ValueError):
    """A construction would exceed the configured order bound."""


@dataclass(frozen=True)
class ConjClassPartition:
    """Partition of a group into conjugacy classes, ordered by minimal element index."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    class_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)

    @classmethod
    def from_labels(cls, labels) -> ConjClassPartition:
        """Classes are the sets of elements sharing a label, ordered by their
        least element index, members ascending."""
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        order = np.argsort(first)
        class_of = np.argsort(order)[inverse.ravel()]
        sizes = np.bincount(class_of).tolist()
        members = np.argsort(class_of, kind="stable").tolist()
        ends = np.cumsum(sizes).tolist()
        return cls(
            classes=tuple(tuple(members[end - size:end]) for size, end in zip(sizes, ends)),
            representatives=tuple(first[order].tolist()),
            sizes=tuple(sizes),
            class_of=tuple(class_of.tolist()),
        )


class FiniteGroup:
    """A finite group on explicit element handles.

    Handles must be hashable; `op` multiplies handles.  `generators` (handle
    list) enables scalable conjugacy computations; without it every element is
    treated as a generator, which is fine up to a few thousand elements.
    `class_labels(group)`, when given, returns one label per element such that
    two elements are conjugate exactly when their labels are equal.
    """

    def __init__(
        self,
        elements: Sequence[Hashable],
        op: Callable,
        *,
        name: str = "",
        inverse: Callable | None = None,
        generators: Sequence[Hashable] | None = None,
        class_labels: Callable | None = None,
    ):
        self._elements = list(elements)
        self.order = len(self._elements)
        if self.order == 0:
            raise InvalidGroupError("a group needs at least one element")
        if self.order > ORDER_LIMIT:
            raise OrderBoundExceededError(f"order {self.order} exceeds bound {ORDER_LIMIT}")
        self._index = {}
        for i, e in enumerate(self._elements):
            if e in self._index:
                raise InvalidGroupError(f"duplicate element handle {e!r}")
            self._index[e] = i
        self._op = op
        self._inv_fn = inverse
        self.name = name
        self._table: np.ndarray | None = None
        self._inverses: list[int] | None = None
        self._classes: ConjClassPartition | None = None
        self._validated = False
        self._class_labels = class_labels
        if generators is None:
            self.generator_indices: tuple[int, ...] | None = None
        else:
            self.generator_indices = tuple(self._index[g] for g in generators)
        self.identity = self._find_identity()

    # -- basic access

    def element(self, i: int) -> Hashable:
        return self._elements[i]

    @property
    def elements(self) -> list:
        return list(self._elements)

    def index_of(self, handle: Hashable) -> int:
        try:
            return self._index[handle]
        except KeyError:
            raise InvalidGroupError(f"{handle!r} is not an element of {self}") from None

    def __contains__(self, handle: Hashable) -> bool:
        return handle in self._index

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"

    # -- multiplication on indices

    def _find_identity(self) -> int:
        x0 = self._elements[0]
        for i, e in enumerate(self._elements):
            if self._op(e, x0) == x0 and self._op(x0, e) == x0:
                return i
        raise InvalidGroupError("no identity element found")

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return int(self._table[i, j])
        prod = self._op(self._elements[i], self._elements[j])
        try:
            return self._index[prod]
        except KeyError:
            raise InvalidGroupError(f"product {prod!r} falls outside the element set") from None

    def ensure_table(self) -> None:
        """Materialize the dense multiplication table (order <= TABLE_LIMIT only)."""
        if self._table is not None or self.order > TABLE_LIMIT:
            return
        n = self.order
        table = np.empty((n, n), dtype=np.int32)
        idx = self._index
        els = self._elements
        op = self._op
        for i in range(n):
            a = els[i]
            row = table[i]
            for j in range(n):
                prod = op(a, els[j])
                try:
                    row[j] = idx[prod]
                except KeyError:
                    raise InvalidGroupError(
                        f"product {prod!r} falls outside the element set"
                    ) from None
        self._table = table

    def inv(self, i: int) -> int:
        if self._inverses is None:
            self._inverses = [-1] * self.order
        cached = self._inverses[i]
        if cached >= 0:
            return cached
        if self._inv_fn is not None:
            j = self._index[self._inv_fn(self._elements[i])]
        elif i == self.identity:
            j = i
        else:
            # cycle through powers: g^(ord(g)-1) is the inverse; in a group
            # the cycle closes within |G| steps
            prev, cur = i, self.mul(i, i)
            steps = 1
            while cur != self.identity:
                prev, cur = cur, self.mul(cur, i)
                steps += 1
                if steps > self.order:
                    raise InvalidGroupError(
                        f"element index {i} has no two-sided inverse"
                    )
            j = prev
        if self.mul(i, j) != self.identity or self.mul(j, i) != self.identity:
            raise InvalidGroupError(f"element index {i} has no two-sided inverse")
        self._inverses[i] = j
        self._inverses[j] = i
        return j

    # -- structure checks

    def validate(self) -> None:
        """Structural sanity: identity, inverses, closure; exhaustive associativity
        up to order FULL_ASSOCIATIVITY_LIMIT, seeded-sample associativity above."""
        if self._validated:
            return
        e = self.identity
        for i in range(self.order):
            if self.mul(e, i) != i or self.mul(i, e) != i:
                raise InvalidGroupError("identity is not two-sided neutral")
        for i in range(self.order):
            j = self.inv(i)
            if self.mul(i, j) != e or self.mul(j, i) != e:
                raise InvalidGroupError(f"element index {i} has no two-sided inverse")
        n = self.order
        if n <= FULL_ASSOCIATIVITY_LIMIT:
            self.ensure_table()
            t = self._table.astype(np.uint8)  # indices < 200: each n^3 array < 8 MB
            # (ab)c against a(bc) for every triple; the first mismatch is re-checked below
            triples = np.argwhere(t[t] != t[np.arange(n)[:, None, None], t])[:1]
        else:
            triples = np.random.default_rng(0).integers(0, n, size=(2000, 3))
        for a, b, c in triples:
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise InvalidGroupError(f"associativity fails at indices ({a},{b},{c})")
        self._validated = True

    def center_indices(self) -> list[int]:
        gens = self.generator_indices or range(self.order)
        out = []
        for i in range(self.order):
            if all(self.mul(i, g) == self.mul(g, i) for g in gens):
                out.append(i)
        return out

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

    def _conjugation(self, g: int) -> np.ndarray:
        """The permutation x -> g x g^-1 of element indices."""
        gi = self.inv(g)
        if self._table is not None:
            return self._table[self._table[g], gi]
        return np.array([self.mul(self.mul(g, x), gi) for x in range(self.order)])

    def _orbit_labels(self) -> np.ndarray:
        """Least element index of every element's conjugacy class.

        For each generator g, the larger of the labels of x and g x g^-1 is
        pointed at the smaller; pointer jumping (least[least]) then moves every
        element to its label's label.  A pass that changes nothing leaves each
        orbit on its least index.  Without generators every element
        conjugates, one row at a time: nothing of size order^2 but the table.
        """
        n = self.order
        if self.generator_indices is None:
            if n > ORBIT_NO_GENERATORS_LIMIT:
                raise OrderBoundExceededError(
                    "conjugacy of a large group needs an explicit generating set"
                )
            self.ensure_table()
            rows = None
        else:
            rows = [self._conjugation(g) for g in self.generator_indices]
        least = np.arange(n)
        while True:
            before = least.copy()
            for row in map(self._conjugation, range(n)) if rows is None else rows:
                ours, theirs = least, least[row]
                np.minimum.at(least, np.maximum(ours, theirs), np.minimum(ours, theirs))
            while not np.array_equal(jumped := least[least], least):
                least = jumped
            if np.array_equal(least, before):
                return least

    def subgroup_closure(self, seed_indices: Sequence[int]) -> list[int]:
        """Indices of the subgroup generated by the given element indices."""
        closure = {self.identity}
        frontier = [self.identity]
        seeds = [*{*seed_indices}]
        while frontier:
            x = frontier.pop()
            for s in seeds:
                for y in (self.mul(x, s), self.mul(x, self.inv(s))):
                    if y not in closure:
                        closure.add(y)
                        frontier.append(y)
        return sorted(closure)


def conjugacy_classes(group: FiniteGroup) -> ConjClassPartition:
    """Full conjugacy-class partition, classes ordered by minimal element index."""
    return group.conjugacy_classes()


# -- products


class _PairGroup(FiniteGroup):
    """Pairs (x, y) of elements of two factor groups, multiplied componentwise.

    Element k is the pair of factor indices divmod(pairs[k], |h|), with
    `pairs` ascending, so elements run through g's index, then h's.  The
    multiplication table is assembled from the factors' tables by index
    arithmetic rather than from handle products.
    """

    def __init__(self, g: FiniteGroup, h: FiniteGroup, pairs: np.ndarray, **kwargs):
        self.factors = (g, h)
        self._pairs = pairs
        g_op, h_op = g._op, h._op

        def op(x, y):
            return (g_op(x[0], y[0]), h_op(x[1], y[1]))

        def inverse(x):
            return (g.element(g.inv(g.index_of(x[0]))), h.element(h.inv(h.index_of(x[1]))))

        g_els, h_els = g.elements, h.elements
        i, j = np.divmod(pairs, h.order)
        elements = [(g_els[a], h_els[b]) for a, b in zip(i.tolist(), j.tolist())]
        super().__init__(elements, op, inverse=inverse, **kwargs)

    def ensure_table(self) -> None:
        """Row k of the table is position[G[i_k, i] * |h| + H[j_k, j]].

        The product is at least as large as either factor, so when it fits
        TABLE_LIMIT both factor tables do too.
        """
        if self._table is not None or self.order > TABLE_LIMIT:
            return
        g, h = self.factors
        g.ensure_table()
        h.ensure_table()
        n, nh = self.order, h.order
        position = np.full(g.order * nh, -1, dtype=np.int32)
        position[self._pairs] = np.arange(n)
        i, j = np.divmod(self._pairs, nh)
        table = np.empty((n, n), dtype=np.int32)
        for k in range(n):  # row by row: no order^2 temporaries
            table[k] = position[g._table[i[k], i] * nh + h._table[j[k], j]]
        if table.min() < 0:
            raise InvalidGroupError("a product of pairs falls outside the element set")
        self._table = table


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
    e_g, e_h = g.element(g.identity), h.element(h.identity)
    gens = None
    if g.generator_indices is not None and h.generator_indices is not None:
        gens = [(g.element(i), e_h) for i in g.generator_indices]
        gens += [(e_g, h.element(j)) for j in h.generator_indices]

    def paired_labels(product: FiniteGroup) -> np.ndarray:
        class_of_g = np.asarray(g.conjugacy_classes().class_of)
        part_h = h.conjugacy_classes()
        return np.add.outer(class_of_g * len(part_h), part_h.class_of).ravel()

    return _PairGroup(
        g,
        h,
        np.arange(g.order * h.order),
        name=name or f"({g.name or 'G'} x {h.name or 'H'})",
        generators=gens,
        class_labels=paired_labels,
    )


@dataclass
class QuotientMap:
    """A surjective homomorphism from source onto target, as an index map."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.order:
            raise InvalidGroupError("mapping must cover every source element")
        self.check()

    def check(self) -> None:
        """Verify surjectivity and the homomorphism law (exhaustively when small)."""
        if len(set(self.mapping)) != self.target.order:
            raise InvalidGroupError("map is not surjective")
        n = self.source.order
        if n <= FULL_HOMOMORPHISM_LIMIT:
            pairs = ((i, j) for i in range(n) for j in range(n))
        else:
            rng = np.random.default_rng(0)
            pairs = (tuple(t) for t in rng.integers(0, n, size=(4000, 2)))
        for i, j in pairs:
            if self.mapping[self.source.mul(i, j)] != self.target.mul(
                self.mapping[i], self.mapping[j]
            ):
                raise InvalidGroupError(f"not a homomorphism at indices ({i},{j})")


def quotient_by(group: FiniteGroup, normal_indices: Sequence[int], *, name: str = "") -> QuotientMap:
    """Quotient map G -> G/N for a normal subgroup given by element indices.

    Cosets are labelled by their minimal element index, which also fixes the
    ordering of the quotient's elements.
    """
    nset = set(normal_indices)
    if group.identity not in nset:
        raise InvalidGroupError("normal subgroup must contain the identity")
    for a in nset:
        for b in nset:
            if group.mul(a, b) not in nset:
                raise InvalidGroupError("subgroup is not closed under multiplication")
    gens = group.generator_indices or range(group.order)
    for g in gens:
        gi = group.inv(g)
        for x in nset:
            if group.mul(group.mul(g, x), gi) not in nset:
                raise InvalidGroupError("subgroup is not normal")
    coset_of = [-1] * group.order
    reps: list[int] = []
    for i in range(group.order):
        if coset_of[i] >= 0:
            continue
        members = {group.mul(i, x) for x in nset}
        rep = min(members)
        reps.append(rep)
        for m in members:
            coset_of[m] = rep
    reps.sort()
    rep_index = {r: k for k, r in enumerate(reps)}

    def op(a: int, b: int) -> int:
        return coset_of[group.mul(a, b)]

    target = FiniteGroup(reps, op, name=name or f"{group.name or 'G'}/N")
    mapping = tuple(rep_index[coset_of[i]] for i in range(group.order))
    return QuotientMap(source=group, target=target, mapping=mapping)


def commutator_subgroup(group: FiniteGroup) -> list[int]:
    """Indices of the derived subgroup (closure of all commutators)."""
    if group.order > TABLE_LIMIT:
        raise OrderBoundExceededError("commutator subgroup needs order <= TABLE_LIMIT")
    group.ensure_table()
    commutators = set()
    for a in range(group.order):
        ai = group.inv(a)
        for b in range(group.order):
            commutators.add(group.mul(group.mul(a, b), group.mul(ai, group.inv(b))))
    return group.subgroup_closure(sorted(commutators))


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
    image_h = np.asarray(qh.mapping)
    counts = np.bincount(image_h, minlength=qh.target.order)
    over = np.split(np.argsort(image_h, kind="stable"), np.cumsum(counts)[:-1])
    pairs = np.concatenate([i * h.order + over[t] for i, t in enumerate(qg.mapping)])
    if len(pairs) != expected:
        raise InvalidGroupError(
            f"fiber product order {len(pairs)} != |g||h|/|target| = {expected}"
        )
    return _PairGroup(g, h, pairs, name=name or f"({g.name or 'G'} x_T {h.name or 'H'})")


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
    sizes = group.conjugacy_classes().sizes
    return hermitian_sum(sizes, x.values, y.values) * Fraction(1, group.order)


def matching_fraction(x: ClassFunction, y: ClassFunction) -> Fraction:
    """Exact fraction of group elements where the two class functions agree."""
    group = _require_same_group(x, y)
    part = group.conjugacy_classes()
    matched = sum(
        size for size, vx, vy in zip(part.sizes, x.values, y.values) if vx == vy
    )
    return Fraction(matched, group.order)


def zero_fraction(x: ClassFunction) -> Fraction:
    """Exact fraction of group elements where the class function vanishes."""
    part = x.group.conjugacy_classes()
    zero = sum(size for size, v in zip(part.sizes, x.values) if v.is_zero())
    return Fraction(zero, x.group.order)


def matching_fraction_bruteforce(x: ClassFunction, y: ClassFunction) -> Fraction:
    """Element-by-element recount of matching_fraction (oracle for tests)."""
    group = _require_same_group(x, y)
    matched = sum(1 for i in range(group.order) if x.value_at(i) == y.value_at(i))
    return Fraction(matched, group.order)


# -- nilpotency


def is_nilpotent(group: FiniteGroup) -> bool:
    """True iff the ascending central series reaches the whole group."""
    if group.order > 10**4:
        raise OrderBoundExceededError("nilpotency check is bounded at order 1e4")
    current = set(group.center_indices())
    if not current:
        raise InvalidGroupError("group has an empty center")
    while len(current) < group.order:
        q = quotient_by(group, sorted(current))
        center_above = set(q.target.center_indices())
        lifted = {i for i in range(group.order) if q.mapping[i] in center_above}
        if len(lifted) == len(current):
            return False
        current = lifted
    return True


# -- serialization


def _fraction_json(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _fraction_from_json(doc: dict) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


def cyc_value_to_json(v: CycValue) -> dict:
    return {
        "conductor": v.conductor,
        "coeffs": [_fraction_json(c) for c in v.power_basis()],
    }


def cyc_value_from_json(doc: dict) -> CycValue:
    e = int(doc["conductor"])
    coeffs = {j: _fraction_from_json(c) for j, c in enumerate(doc["coeffs"])}
    return CycValue(e, coeffs)


def group_to_json(group: FiniteGroup) -> dict:
    part = group.conjugacy_classes()
    return {
        "kind": "finite_group",
        "name": group.name,
        "order": group.order,
        "class_count": len(part),
        "classes": [
            {
                "representative": repr(group.element(r)),
                "min_element_index": int(r),
                "size": int(s),
            }
            for r, s in zip(part.representatives, part.sizes)
        ],
    }


def class_function_to_json(cf: ClassFunction) -> dict:
    return {
        "kind": "class_function",
        "group": cf.group.name,
        "group_order": cf.group.order,
        "name": cf.name,
        "values": [cyc_value_to_json(v) for v in cf.values],
    }


def class_function_from_json(group: FiniteGroup, doc: dict) -> ClassFunction:
    if doc.get("kind") != "class_function":
        raise ValueError("not a class-function document")
    if int(doc["group_order"]) != group.order:
        raise GroupMismatchError("document was serialized from a different group")
    values = [cyc_value_from_json(v) for v in doc["values"]]
    return ClassFunction(group, values, name=doc.get("name", ""))


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
