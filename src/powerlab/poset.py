"""Finite partial orders and their elementary order-theoretic predicates.

A poset on elements ``0..n-1`` is stored as two tuples of int bitmasks:
``up_masks[i]`` has bit ``j`` set when element ``i`` is below element ``j``,
and ``down_masks[j]`` holds the same relation read by columns.  Subsets of
the universe are plain Python ints used as bitmasks in the same way (bit
``i`` set means element ``i`` is in the subset); they are the currency of
every family computation in this package.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import compress


class PosetError(ValueError):
    """Invalid input: bad covers, duplicate labels, broken order axioms."""


class InvariantError(RuntimeError):
    """An internal structural invariant broke; indicates a bug, not bad input."""


def iter_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# a..z, then x26, x27, ...: enough for every poset a canonical form can pack
_LABELS = tuple("abcdefghijklmnopqrstuvwxyz") + tuple(f"x{i}" for i in range(26, 256))


def _default_labels(n: int) -> tuple[str, ...]:
    if n > len(_LABELS):
        return _LABELS + tuple(f"x{i}" for i in range(len(_LABELS), n))
    return _LABELS[:n]


class FinitePoset:
    """Immutable finite poset on elements ``0..n-1`` with display labels.

    The relation is stored fully transitively closed as the bitmasks
    ``up_masks`` and ``down_masks``, so an order query is one shift; the
    covering relation is derived on demand and ``le`` is a derived read-only
    matrix view.  ``FinitePoset(le, labels)`` takes any square nested
    sequence of truth values with ``le[i][j]`` meaning ``i`` is below ``j``;
    ``from_up_masks`` takes the up-masks directly.  Both run the same checks.
    """

    def __init__(self, le, labels=None):
        rows = [tuple(row) for row in le]
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise PosetError(f"relation matrix must be square, got shape {(n, len(row))}")
        powers = [1 << j for j in range(n)]
        self._set_relation(tuple([sum(compress(powers, row)) for row in rows]), labels)

    def _set_relation(self, up: tuple[int, ...], labels) -> None:
        n = len(up)
        if labels is None:
            labels = _default_labels(n)
        else:
            labels = tuple(labels)
            if "" in labels:
                raise PosetError("empty label")
        if len(labels) != n:
            raise PosetError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise PosetError("duplicate label")
        # one pass checks each row's range and reflexivity, reads the columns
        # and what each row reaches in two steps; a reflexive row is transitive
        # iff that reach is the row.  iter_bits is inlined: every poset built
        # runs this loop, and the generator would double its cost
        down = [0] * n
        reflexive = transitive = True
        for i, row in enumerate(up):
            if row >> n:
                raise PosetError(f"up-mask of element {i} has bits outside 0..{n - 1}")
            bit, reach, rest = 1 << i, 0, row
            reflexive = reflexive and row & bit
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                down[j] |= bit
                reach |= up[j]
                rest ^= low
            transitive = transitive and reach == row
        if not reflexive:
            raise PosetError("relation is not reflexive")
        for i, row in enumerate(up):
            if row & down[i] != 1 << i:
                raise PosetError("relation is not antisymmetric")
        if not transitive:
            raise PosetError("relation is not transitive")
        self.n = n
        self.labels = labels
        self.up_masks = up
        self.down_masks = tuple(down)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_up_masks(cls, up_masks, labels=None) -> "FinitePoset":
        """Build a poset from ``up_masks[i]``, the bitmask of the elements at
        or above ``i``; validated like the matrix constructor."""
        p = cls.__new__(cls)
        p._set_relation(tuple(up_masks), labels)
        return p

    @classmethod
    def from_covers(cls, labels, cover_pairs) -> "FinitePoset":
        """Build a poset from labels and covering pairs ``(lower, upper)``.

        The relation is the reflexive-transitive closure of the covers; a
        cycle among the covers is rejected.
        """
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise PosetError("duplicate label")
        n = len(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        up = [1 << i for i in range(n)]
        for pair in cover_pairs:
            a, b = pair
            if a not in index or b not in index:
                raise PosetError(f"cover pair {pair!r} uses an unknown label")
            if a == b:
                raise PosetError(f"cover pair {pair!r} is a self-loop")
            up[index[a]] |= 1 << index[b]
        # Warshall's closure on rows: once k is done, every row reaching k
        # also reaches everything k reaches
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        for i in range(n):
            for j in iter_bits(up[i] & ~(1 << i)):
                if up[j] >> i & 1:
                    raise PosetError("cycle detected among cover pairs")
        return cls.from_up_masks(up, labels)

    @classmethod
    def from_json(cls, data) -> "FinitePoset":
        """Parse the ``{"labels": [...], "covers": [[lo, hi], ...]}`` format,
        given parsed or as JSON text (``str`` or ``bytes``).

        Labels are strings and every cover is a two-element list of labels;
        text that is not JSON, or nests too deeply to parse, and any other
        shape are a ``PosetError``.
        """
        if isinstance(data, (str, bytes)):
            try:
                data = json.loads(data)
            except (ValueError, RecursionError) as exc:
                raise PosetError(f"malformed JSON: {exc}") from None
        if not isinstance(data, dict) or "labels" not in data or "covers" not in data:
            raise PosetError('poset JSON needs "labels" and "covers" fields')
        labels, covers = data["labels"], data["covers"]
        if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
            raise PosetError(f'"labels" must be a list of strings, not {labels!r}')
        if not isinstance(covers, list):
            raise PosetError(f'"covers" must be a list of pairs, not {covers!r}')
        for pair in covers:
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(lab, str) for lab in pair)
            ):
                raise PosetError(f"cover pair {pair!r} is not a list of two labels")
        return cls.from_covers(labels, [tuple(pair) for pair in covers])

    # -- derived structure -------------------------------------------------

    @cached_property
    def le(self) -> tuple[tuple[bool, ...], ...]:
        """Read-only matrix view: ``le[i][j]`` is whether ``i`` is below ``j``."""
        return tuple(tuple(bool(row >> j & 1) for j in range(self.n)) for row in self.up_masks)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def principal(self) -> dict:
        """Each element's up-set mask mapped to the element, read by ``sup``."""
        return {row: i for i, row in enumerate(self.up_masks)}

    @cached_property
    def label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def linear_extension(self) -> tuple[int, ...]:
        # sorting by down-set size gives a topological order of any poset
        return tuple(sorted(range(self.n), key=lambda i: (self.down_masks[i].bit_count(), i)))

    @cached_property
    def ideals(self) -> tuple[int, ...]:
        """All lower sets, grown along a linear extension.

        Each element, in turn, is added to every ideal found so far that
        already holds its strict down-set; those are exactly the ideals it
        may join, as every element below it came earlier.  The work is
        proportional to the number of ideals, not to 2**n.  The empty set
        comes first.
        """
        out = [0]
        for e in self.linear_extension:
            bit = 1 << e
            below = self.down_masks[e] & ~bit
            out += [m | bit for m in out if not below & ~m]
        return tuple(out)

    @cached_property
    def way_down_masks(self) -> tuple[int, ...]:
        """``out[y]`` holds every element way below ``y``: x is way below y
        exactly when every ideal, a directed lower set, whose sup lies above
        y contains x (Abramsky & Jung, "Domain theory", 1994, §2.2).  That is
        ``way_below``'s definition restated: for a directed D, ↓D is an
        ideal with the same upper bounds, so the same sup, and x lies below
        a member of D exactly when x ∈ ↓D.  One pass over the lower sets
        that pass the literal ``is_directed``; ``way_below`` is the oracle."""
        out = [self.full_mask] * self.n
        for ideal in self.ideals:
            s = sup(self, ideal) if ideal else None
            if s is not None and is_directed(self, ideal):
                for y in iter_bits(self.down_masks[s]):
                    out[y] &= ideal
        return tuple(out)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up_masks[i] >> j & 1)

    # -- subsets by label ---------------------------------------------------

    def subset_from_labels(self, labels) -> int:
        bits = 0
        for lab in labels:
            if lab not in self.label_index:
                raise PosetError(f"unknown label {lab!r}")
            bits |= 1 << self.label_index[lab]
        return bits

    def subset_labels(self, bits: int) -> list[str]:
        return [self.labels[i] for i in iter_bits(bits)]

    # -- export -------------------------------------------------------------

    def to_json(self) -> dict:
        covers = [[self.labels[i], self.labels[j]] for i, j in hasse(self)]
        return {"labels": list(self.labels), "covers": covers}

    def to_dot(self) -> str:
        # each label is a quoted DOT ID, with backslash and quote escaped
        ids = ['"' + lab.replace("\\", "\\\\").replace('"', '\\"') + '"' for lab in self.labels]
        lines = ["digraph hasse {", "  rankdir=BT;", *(f"  {v};" for v in ids)]
        lines += [f"  {ids[i]} -> {ids[j]};" for i, j in hasse(self)]
        return "\n".join(lines + ["}"])

    def __repr__(self):
        return f"FinitePoset({self.n}, labels={self.labels!r})"

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.labels == other.labels and self.up_masks == other.up_masks

    def __hash__(self):
        return hash((self.labels, self.up_masks))


class PosetMap:
    """A function between posets, given by the image index of each element."""

    def __init__(self, dom: FinitePoset, cod: FinitePoset, img):
        img = tuple(img)
        if len(img) != dom.n:
            raise PosetError(f"map needs {dom.n} images, got {len(img)}")
        if any(not 0 <= v < cod.n for v in img):
            raise PosetError("map image index out of range")
        self.dom, self.cod, self.img = dom, cod, img

    def is_monotone(self) -> bool:
        img, cup = self.img, self.cod.up_masks
        return all(
            cup[img[i]] >> img[j] & 1
            for i, row in enumerate(self.dom.up_masks)
            for j in iter_bits(row)
        )

    def image_bits(self, bits: int) -> int:
        out = 0
        for i in iter_bits(bits):
            out |= 1 << self.img[i]
        return out

    def preimage_bits(self, bits: int) -> int:
        out = 0
        for i, v in enumerate(self.img):
            if bits >> v & 1:
                out |= 1 << i
        return out

    def is_scott_continuous(self) -> bool:
        """Literal check: every directed subset's sup is mapped to the sup of its image."""
        for dbits, s in directed_subsets_with_sups(self.dom, self.dom.full_mask):
            t = sup(self.cod, self.image_bits(dbits))
            if t is None or t != self.img[s]:
                return False
        return True


def iter_monotone_maps(p: FinitePoset, q: FinitePoset):
    """Every monotone map p -> q as a tuple of images, lexicographic in the
    images along ``p.linear_extension``.

    Backtracking along that linear extension: the candidates for each element
    are the common up-set of the images of its predecessors, tried in
    increasing order.  The stack is explicit, one candidate mask per depth, so
    nothing refers to itself and no garbage is left for the collector; the
    last element's candidates are assigned in one inner loop, with no push or
    pop per map.
    """
    n = p.n
    if n == 0:
        yield ()
        return
    order = p.linear_extension
    # preds[k]: the elements strictly below order[k], all earlier in the order
    preds = [list(iter_bits(p.down_masks[e] & ~(1 << e))) for e in order]
    up, full = q.up_masks, q.full_mask
    last, leaf = n - 1, order[-1]
    img = [0] * n
    rest = [0] * n  # rest[k]: the candidates for order[k] not yet tried
    rest[0] = full
    k = 0
    while k >= 0:
        cand = rest[k]
        if k == last:
            while cand:
                low = cand & -cand
                cand ^= low
                img[leaf] = low.bit_length() - 1
                yield tuple(img)
        if not cand:
            k -= 1
            continue
        low = cand & -cand
        rest[k] = cand ^ low
        img[order[k]] = low.bit_length() - 1
        k += 1
        cand = full
        for x in preds[k]:
            cand &= up[img[x]]
        rest[k] = cand


# -- elementary operations on subsets ---------------------------------------


def down_set(p: FinitePoset, bits: int) -> int:
    """All elements below or equal to some element of the subset."""
    out, down = 0, p.down_masks
    while bits:
        low = bits & -bits
        out |= down[low.bit_length() - 1]
        bits ^= low
    return out


def upper_bounds(p: FinitePoset, bits: int) -> int:
    """Common upper bounds of the subset; the whole universe for the empty set."""
    out = p.full_mask
    for i in iter_bits(bits):
        out &= p.up_masks[i]
    return out


def is_consistent(p: FinitePoset, bits: int) -> bool:
    """Whether the subset has a common upper bound; the empty set counts as consistent."""
    if bits == 0:
        return True
    return upper_bounds(p, bits) != 0


def is_directed(p: FinitePoset, bits: int) -> bool:
    """Every pair has an upper bound inside the subset; rejects the empty set."""
    if bits == 0:
        raise PosetError("directedness is only defined for nonempty subsets")
    elems = list(iter_bits(bits))
    up = p.up_masks
    for a in range(len(elems)):
        for b in range(a + 1, len(elems)):
            if up[elems[a]] & up[elems[b]] & bits == 0:
                return False
    return True


def least_upper_bound(up_masks, full_mask: int, bits: int):
    """Least common upper bound of ``bits`` given per-element up-masks, or None,
    by a literal scan: the reference that ``sup`` is tested against."""
    ub = full_mask
    for i in iter_bits(bits):
        ub &= up_masks[i]
    if ub == 0:
        return None
    for b in iter_bits(ub):
        if ub & ~up_masks[b] == 0:
            return b
    return None


def sup(p: FinitePoset, bits: int):
    """Least upper bound of the subset, else None: the element whose up-set is
    the common upper bounds (Davey & Priestley, *Introduction to Lattices and
    Order*, 2nd ed., ch. 2), one lookup since distinct up-sets differ."""
    return p.principal.get(upper_bounds(p, bits))


def is_lower_set(p: FinitePoset, bits: int) -> bool:
    return down_set(p, bits) == bits


# the largest poset whose directed subsets the literal definitions enumerate
DIRECTED_SUBSET_CAP = 16


def directed_subsets_with_sups(p: FinitePoset, domain_bits: int) -> list:
    """The nonempty directed subsets of ``domain_bits`` paired with their
    sups, in the order of ``enumerate_directed_subsets``: exhaustive, so
    only the literal definitions read it."""
    return [(d, sup(p, d)) for d in enumerate_directed_subsets(p.up_masks, domain_bits)]


def enumerate_directed_subsets(up_masks, domain_bits: int) -> list[int]:
    """Nonempty subsets of ``domain_bits`` whose every pair is bounded inside
    the subset, grown like ``FinitePoset.ideals``.

    The elements are visited by ascending up-set size, a reverse linear
    extension: a strictly larger element has a strictly smaller up-set.  A
    bound of two members of a directed D lies at or above both, so it comes
    no later than either; every prefix of D is therefore directed, and adding
    an element to a directed set only needs its new pairs tested.  That
    element ``x`` is never above an earlier one, so only the members outside
    ``x``'s up-set need a bound with ``x`` inside the set.  A domain of more
    than ``DIRECTED_SUBSET_CAP`` elements is refused.
    """
    elems = [x for _, x in sorted((up_masks[x].bit_count(), x) for x in iter_bits(domain_bits))]
    if len(elems) > DIRECTED_SUBSET_CAP:
        raise PosetError(
            f"exhaustive directed-subset enumeration capped at {DIRECTED_SUBSET_CAP} elements"
        )
    out = [0]
    for x in elems:
        ux = up_masks[x]
        out += [d | 1 << x for d in out if all(ux & up_masks[y] & d for y in iter_bits(d & ~ux))]
    return out[1:]


def directed_sup_closure_step(up_masks, full_mask: int, bits: int) -> int:
    """Sups (when they exist) of every nonempty directed subset of ``bits``.

    The literal directed-sup closure step.  On a finite poset every directed
    subset contains its sup, so the step only returns elements of ``bits``;
    production closures omit it, and the tests keep it as the reference they
    compare the closures against.
    """
    found = 0
    for d in enumerate_directed_subsets(up_masks, bits):
        s = least_upper_bound(up_masks, full_mask, d)
        if s is not None:
            found |= 1 << s
    return found


def is_scott_closed(p: FinitePoset, bits: int) -> bool:
    """Literal check: a lower set containing the sup of each of its directed subsets."""
    if not is_lower_set(p, bits):
        return False
    for d, s in directed_subsets_with_sups(p, bits):
        if s is not None and not bits >> s & 1:
            return False
    return True


def scott_closure(p: FinitePoset, bits: int) -> int:
    """Least Scott closed superset: the down-set.

    A finite directed set has a greatest element, which is its sup, so a
    lower set is already closed under directed sups.  The test suite checks
    this collapse against ``is_scott_closed`` and ``directed_sup_closure_step``.
    """
    return down_set(p, bits)


def way_below(p: FinitePoset, x: int, y: int) -> bool:
    """Whether every directed subset with sup above ``y`` reaches down to ``x``.

    Decided by quantifying over all directed subsets; no finite-poset shortcut
    is assumed here.
    """
    for dbits, s in directed_subsets_with_sups(p, p.full_mask):
        if s is not None and p.up_masks[y] >> s & 1 and not down_set(p, dbits) >> x & 1:
            return False
    return True


def way_down_masks(p: FinitePoset) -> tuple[int, ...]:
    """``out[y]`` holds every element way below ``y``: the table
    ``FinitePoset.way_down_masks``, computed once per poset."""
    return p.way_down_masks


def is_irreducible_closed(p: FinitePoset, bits: int) -> bool:
    """Whether the closed set is not a union of two proper closed subsets."""
    if not is_scott_closed(p, bits):
        raise PosetError("irreducibility is only defined for Scott closed sets")
    if bits == 0:
        return False
    proper = [c for c in p.ideals if c & ~bits == 0 and c != bits]
    for i, c1 in enumerate(proper):
        for c2 in proper[i + 1 :]:
            if c1 | c2 == bits:
                return False
    return True


def is_sober(p: FinitePoset) -> bool:
    """Every nonempty irreducible closed set is a point closure.

    A closed set is the union of two proper closed subsets exactly when it
    is the union of two incomparable closed sets: two proper subsets with
    that union are incomparable, and each of two incomparable sets is a
    proper subset of their union.  Those unions are collected in one pass
    over the pairs of closed sets; ``is_irreducible_closed`` is the per-set
    oracle."""
    closed = p.ideals
    reducible = {
        c1 | c2
        for i, c1 in enumerate(closed)
        for c2 in closed[i + 1 :]
        if c1 & ~c2 and c2 & ~c1
    }
    principal = set(p.down_masks)
    return all(c in reducible or c in principal for c in closed if c)


def hasse(p: FinitePoset) -> tuple[tuple[int, int], ...]:
    """Covering pairs ``(i, j)``: the transitive reduction of the order."""
    strict = [row & ~(1 << i) for i, row in enumerate(p.up_masks)]
    out = []
    for i, row in enumerate(strict):
        via = 0
        for j in iter_bits(row):
            via |= strict[j]
        out.extend((i, j) for j in iter_bits(row & ~via))
    return tuple(out)
