"""Finite-index subgroups of free groups, stored as coset tables.

A table of index n for the free group of rank r is a transitive right
action of the generators on {0, ..., n-1}; the subgroup is the stabilizer
of coset 0.  Everything downstream is deterministic: Schreier
representatives come from a breadth-first search trying letters in the
order 1, -1, 2, -2, ..., the Schreier basis scans non-tree positive edges
in (coset, generator) order, and elevation cycles are listed by their
least coset.

``elevations`` decomposes the permutation induced by a cyclically reduced
word into cycles.  A cycle of length d through least coset m yields the
conjugate rep(m) * w**d * rep(m)**-1, a subgroup element well defined up to
conjugacy in the subgroup; for a primitive w the cycles give pairwise
non-conjugate classes, which is what ``pullback`` checks when it transports
a family of classes to a finite-index subgroup.

``enumerate_subgroups`` lists one table per conjugacy class of subgroups of
the given index (so 3 classes at index 2 and 7 at index 3 for rank 2, not
Hall's subgroup counts).  ``prescribe_degrees`` searches small finite
quotients for a normal subgroup where given words elevate with prescribed
degrees, all scaled by one common factor.  It skips every cyclic quotient
Z/m and product Z/m1 x Z/m2 in which the exponent sums bound some word's
order by a number its degree does not divide (a commutator has order 1 in
all of them); no candidate there can pass the degree screen, so the first
hit is the same as a full scan's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import PairCollisionError
from .words import ConjClass, Word, abelianize_word, conj_canonical, free_reduce, identity

Target = Union[Word, ConjClass]


def _invert_perm(p: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * len(p)
    for i, a in enumerate(p):
        out[a] = i
    return tuple(out)


@dataclass(frozen=True)
class CosetTable:
    """Transitive right action of free-group generators on {0..n-1}.

    ``action[i]`` is the permutation of generator i+1; negative letters act
    by the inverse permutation.
    """

    rank: int
    action: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if len(self.action) != self.rank:
            raise ValueError("need one permutation per generator")
        n = len(self.action[0])
        if n < 1:
            raise ValueError("need at least one coset")
        for row in self.action:
            if sorted(row) != list(range(n)):
                raise ValueError("each generator must act by a permutation")
        inverse = tuple(_invert_perm(row) for row in self.action)
        object.__setattr__(self, "_inverse", inverse)
        seen = {0}
        queue = [0]
        while queue:
            a = queue.pop()
            for row in itertools.chain(self.action, inverse):
                b = row[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        if len(seen) != n:
            raise ValueError("action is not transitive")

    @property
    def size(self) -> int:
        return len(self.action[0])

    def act(self, alpha: int, letter: int) -> int:
        if letter > 0:
            return self.action[letter - 1][alpha]
        return self._inverse[-letter - 1][alpha]

    def act_word(self, alpha: int, w: Word) -> int:
        for letter in w.letters:
            alpha = self.act(alpha, letter)
        return alpha


def whole_group_table(rank: int) -> CosetTable:
    return CosetTable(rank, ((0,),) * rank)


@lru_cache(maxsize=None)
def cyclic_table(n: int) -> CosetTable:
    """The unique index-n subgroup class of the rank-one free group
    (memoised: a table is immutable)."""
    return CosetTable(1, (tuple((i + 1) % n for i in range(n)),))


def subgroup_rank(table: CosetTable) -> int:
    """Rank of the subgroup: n * (r - 1) + 1."""
    return table.size * (table.rank - 1) + 1


def contains(table: CosetTable, w: Word) -> bool:
    if w.rank != table.rank:
        raise ValueError("rank mismatch")
    return table.act_word(0, w) == 0


# ---------------------------------------------------------------------------
# Schreier representatives, basis and rewriting


@dataclass(frozen=True)
class SchreierData:
    table: CosetTable
    reps: Tuple[Word, ...]
    basis: Tuple[Word, ...]
    edge_basis: Tuple[Tuple[int, int, int], ...]  # (coset, generator, 1-based index)

    def edge_map(self) -> Dict[Tuple[int, int], int]:
        return {(a, x): k for a, x, k in self.edge_basis}


@lru_cache(maxsize=None)
def schreier(table: CosetTable) -> SchreierData:
    """Breadth-first Schreier data for the subgroup at coset 0."""
    n, r = table.size, table.rank
    letters = []
    for x in range(1, r + 1):
        letters.extend((x, -x))
    reps: List[Optional[Word]] = [None] * n
    reps[0] = identity(r)
    tree: set = set()
    queue = [0]
    while queue:
        nxt = []
        for a in queue:
            for letter in letters:
                b = table.act(a, letter)
                if reps[b] is None:
                    reps[b] = reps[a] * Word((letter,), r)
                    if letter > 0:
                        tree.add((a, letter))
                    else:
                        tree.add((b, -letter))
                    nxt.append(b)
        queue = nxt
    basis: List[Word] = []
    edge_basis: List[Tuple[int, int, int]] = []
    for a in range(n):
        for x in range(1, r + 1):
            if (a, x) in tree:
                continue
            b = table.act(a, x)
            basis.append(reps[a] * Word((x,), r) * reps[b].inverse())
            edge_basis.append((a, x, len(basis)))
    return SchreierData(table, tuple(reps), tuple(basis), tuple(edge_basis))


def rewrite(table: CosetTable, w: Word) -> Word:
    """Express a subgroup element in the Schreier basis of the subgroup."""
    sd = schreier(table)
    edges = sd.edge_map()
    out: List[int] = []
    cur = 0
    for letter in w.letters:
        if letter > 0:
            k = edges.get((cur, letter))
            if k is not None:
                out.append(k)
            cur = table.act(cur, letter)
        else:
            nxt = table.act(cur, letter)
            k = edges.get((nxt, -letter))
            if k is not None:
                out.append(-k)
            cur = nxt
    if cur != 0:
        raise ValueError("word does not lie in the subgroup")
    return free_reduce(out, len(sd.basis))


def subgroup_contains(big: CosetTable, small: CosetTable) -> bool:
    """Whether the subgroup of ``small`` lies inside the subgroup of ``big``."""
    if big.rank != small.rank:
        raise ValueError("rank mismatch")
    return all(contains(big, g) for g in schreier(small).basis)


# ---------------------------------------------------------------------------
# Elevations


@dataclass(frozen=True)
class Elevation:
    """One cycle of the permutation a cyclically reduced word induces.

    ``cycle`` starts at the least coset it contains and follows the action
    of the word; ``rep`` is rep(m) * w**degree * rep(m)**-1 at that least
    coset m, and ``local`` is its class written in the subgroup basis.
    """

    base: ConjClass
    cycle: Tuple[int, ...]
    rep: Word
    local: ConjClass

    @property
    def degree(self) -> int:
        return len(self.cycle)


def elevations(table: CosetTable, target: Target) -> List[Elevation]:
    cls = target if isinstance(target, ConjClass) else conj_canonical(target)
    if cls.is_trivial():
        raise ValueError("elevations of the trivial class are not defined")
    if cls.rank != table.rank:
        raise ValueError("rank mismatch")
    w = cls.canonical
    sd = schreier(table)
    n = table.size
    seen = [False] * n
    out: List[Elevation] = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        cur = table.act_word(start, w)
        while cur != start:
            seen[cur] = True
            cycle.append(cur)
            cur = table.act_word(cur, w)
        rep = sd.reps[start] * w.power(len(cycle)) * sd.reps[start].inverse()
        local = conj_canonical(rewrite(table, rep))
        out.append(Elevation(cls, tuple(cycle), rep, local))
    return out


@dataclass(frozen=True)
class Pair:
    """A free group of the given rank together with a family of conjugacy
    classes in it, kept in a fixed order."""

    rank: int
    classes: Tuple[ConjClass, ...]

    def __post_init__(self):
        for c in self.classes:
            if c.rank != self.rank:
                raise ValueError("class rank mismatch")
            if c.is_trivial():
                raise ValueError("classes must be nontrivial")


def pullback(pair: Pair, table: CosetTable) -> Pair:
    """Transport a family of classes to a finite-index subgroup.

    The result lists, for each class in order, the local class of each of
    its elevations (by ascending least coset).  Raises PairCollisionError
    when two of the resulting classes agree up to inverse, which cannot
    happen for a malnormal family of primitive classes.
    """
    if pair.rank != table.rank:
        raise ValueError("rank mismatch")
    locals_: List[ConjClass] = []
    for cls in pair.classes:
        for elev in elevations(table, cls):
            locals_.append(elev.local)
    for i in range(len(locals_)):
        for j in range(i + 1, len(locals_)):
            if locals_[i] == locals_[j] or locals_[i] == locals_[j].inverse():
                raise PairCollisionError(
                    "elevation classes %d and %d coincide up to inverse" % (i, j)
                )
    return Pair(len(schreier(table).basis), tuple(locals_))


# ---------------------------------------------------------------------------
# Enumeration of subgroups up to conjugacy


def _bfs_encoding(table: CosetTable, start: int) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """Renumber cosets by first appearance from ``start``, rows read in
    (coset, generator) order; returns (flat renumbered action, old -> new)."""
    n, r = table.size, table.rank
    order = [start]
    pos = {start: 0}
    i = 0
    while i < len(order):
        old = order[i]
        for x in range(r):
            val = table.action[x][old]
            if val not in pos:
                pos[val] = len(order)
                order.append(val)
        i += 1
    flat = []
    for i in range(n):
        old = order[i]
        for x in range(r):
            flat.append(pos[table.action[x][old]])
    return tuple(flat), pos


def is_class_minimal(table: CosetTable) -> bool:
    """Whether this table is the canonical one in its conjugacy class."""
    own = _bfs_encoding(table, 0)[0]
    return all(own <= _bfs_encoding(table, s)[0] for s in range(1, table.size))


def enumerate_subgroups(rank: int, idx: int) -> Iterator[CosetTable]:
    """One table per conjugacy class of subgroups of the exact given index.

    Tables come out in a fixed depth-first order.
    """
    if rank < 1 or idx < 1:
        raise ValueError("rank and index must be positive")
    if idx == 1:
        yield whole_group_table(rank)
        return
    n, r = idx, rank
    fwd = [[-1] * n for _ in range(r)]
    bwd = [[-1] * n for _ in range(r)]
    slots = [(a, x) for a in range(n) for x in range(r)]

    def rec(si: int, used: int) -> Iterator[CosetTable]:
        if si == len(slots):
            if used == n:
                t = CosetTable(rank, tuple(tuple(row) for row in fwd))
                if is_class_minimal(t):
                    yield t
            return
        a, x = slots[si]
        if a >= used:
            return
        if fwd[x][a] != -1:
            yield from rec(si + 1, used)
            return
        top = used + 1 if used < n else used
        for b in range(top):
            if bwd[x][b] != -1:
                continue
            fwd[x][a] = b
            bwd[x][b] = a
            yield from rec(si + 1, used + 1 if b == used else used)
            fwd[x][a] = -1
            bwd[x][b] = -1

    yield from rec(0, 1)


# ---------------------------------------------------------------------------
# Prescribing elevation degrees via small finite quotients


@dataclass(frozen=True)
class PrescribeResult:
    """A normal subgroup realizing prescribed elevation degrees.

    Every elevation of the i-th word has degree scale * degrees[i]; the
    table is the regular action of the finite quotient named in
    ``quotient``.
    """

    table: CosetTable
    scale: int
    quotient: str


def _perm_order(perm: Tuple[int, ...]) -> int:
    n = len(perm)
    seen = [False] * n
    out = 1
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        cur = s
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        out = out * length // math.gcd(out, length)
    return out


def _word_perm(perms: Sequence[Tuple[int, ...]], inv: Sequence[Tuple[int, ...]], w: Word) -> Tuple[int, ...]:
    n = len(perms[0])
    cur = list(range(n))
    for letter in w.letters:
        row = perms[letter - 1] if letter > 0 else inv[-letter - 1]
        cur = [row[c] for c in cur]
    return tuple(cur)


def _perm_closure(perms: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    n = len(perms[0])
    ident = tuple(range(n))
    order = [ident]
    seen = {ident}
    i = 0
    while i < len(order):
        h = order[i]
        for p in perms:
            h2 = tuple(p[a] for a in h)
            if h2 not in seen:
                seen.add(h2)
                order.append(h2)
        i += 1
    return order


def regular_table(perms: Sequence[Tuple[int, ...]], rank: int) -> CosetTable:
    """Regular action of the permutation group the images generate; its
    stabilizer of the identity is the kernel, hence normal."""
    closure = _perm_closure(perms)
    pos = {h: i for i, h in enumerate(closure)}
    action = []
    for x in range(rank):
        p = perms[x]
        action.append(tuple(pos[tuple(p[a] for a in h)] for h in closure))
    return CosetTable(rank, tuple(action))


def is_regular(table: CosetTable) -> bool:
    """Whether the action is the regular one, i.e. the subgroup is normal."""
    return len(_perm_closure(table.action)) == table.size


def _cyclic_shift(m: int, c: int) -> Tuple[int, ...]:
    return tuple((i + c) % m for i in range(m))


def _pair_shift(m1: int, m2: int, c1: int, c2: int) -> Tuple[int, ...]:
    return tuple(
        ((a // m2 + c1) % m1) * m2 + (a % m2 + c2) % m2 for a in range(m1 * m2)
    )


def _order_mod(val: int, m: int) -> int:
    return m // math.gcd(val % m, m)


def _abelian_degrees_possible(
    gcds: Sequence[int], degrees: Sequence[int], moduli: Sequence[int]
) -> bool:
    """Whether some images of the generators in the product of Z/m over
    ``moduli`` can give word i an order divisible by degrees[i], for all i.

    ``gcds[i]`` is the gcd of word i's exponent sums (0 for a zero vector).
    The image of word i in Z/m is a multiple of gcd(g, m), so its order
    divides m / gcd(g, m); in a product it divides the lcm of these.  The
    screen wants the order to equal scale * degrees[i], a multiple of
    degrees[i], so a modulus where some degree does not divide the bound
    cannot pass it.
    """
    return all(
        math.lcm(*(m // math.gcd(g, m) for m in moduli)) % d == 0
        for g, d in zip(gcds, degrees)
    )


def prescribe_degrees(
    rank: int,
    targets: Sequence[Target],
    degrees: Sequence[int],
    within: Optional[CosetTable] = None,
    max_modulus: int = 60,
    max_pair_modulus: int = 12,
    max_perm_index: int = 5,
) -> Optional[PrescribeResult]:
    """Find a normal subgroup where the words elevate with the prescribed
    degrees, up to one common scale factor.

    Scans a fixed schedule of finite quotients (cyclic, products of two
    cyclics, then images of small transitive actions) and returns the first
    hit; every elevation of targets[i] in the resulting table has degree
    scale * degrees[i].  With ``within``, only subgroups contained in the
    given one are accepted.  Returns None when the schedule is exhausted,
    and at once when two targets are one class up to inversion but have
    different degrees.

    The abelian phases skip each modulus, or pair of moduli, in which some
    word's order is bounded by a number that degrees[i] does not divide
    (see ``_abelian_degrees_possible``).  Every candidate skipped this way
    would fail the screen, so the scan order, and with it the first hit
    (table, scale and quotient name), is that of the full schedule.
    """
    words = []
    for t in targets:
        cls = t if isinstance(t, ConjClass) else conj_canonical(t)
        if cls.is_trivial():
            raise ValueError("cannot prescribe a degree for the trivial class")
        if cls.rank != rank:
            raise ValueError("rank mismatch")
        words.append(cls.canonical)
    if len(words) != len(degrees) or not words:
        raise ValueError("need one positive degree per word")
    if any(d < 1 for d in degrees):
        raise ValueError("need one positive degree per word")
    if within is not None and within.rank != rank:
        raise ValueError("rank mismatch with the ambient subgroup")
    # A class and its inverse have equal orders in every quotient, so two
    # targets equal up to inversion cannot take different degrees.
    for (w1, d1), (w2, d2) in itertools.combinations(zip(words, degrees), 2):
        if d1 != d2 and w2 in (w1, conj_canonical(w1.inverse()).canonical):
            return None

    ab = [abelianize_word(w) for w in words]
    gcds = [math.gcd(*v) for v in ab]

    def screen(orders: Sequence[int]) -> Optional[int]:
        scale, r0 = divmod(orders[0], degrees[0])
        if r0 or scale < 1:
            return None
        if any(o != scale * d for o, d in zip(orders, degrees)):
            return None
        return scale

    def verify(name: str, perms: List[Tuple[int, ...]], scale: int) -> Optional[PrescribeResult]:
        # Independent re-check: build the regular table of the image and
        # read every elevation degree off the table itself.
        table = regular_table(perms, rank)
        if not is_regular(table):
            return None
        for w, d in zip(words, degrees):
            if any(e.degree != scale * d for e in elevations(table, w)):
                return None
        if within is not None and not subgroup_contains(within, table):
            return None
        return PrescribeResult(table, scale, "%s (order %d)" % (name, table.size))

    # Phase A: cyclic quotients.  Orders come from exponent sums, so the
    # screen is a few integer operations per candidate.
    for m in range(2, max_modulus + 1):
        if not _abelian_degrees_possible(gcds, degrees, (m,)):
            continue
        for cs in itertools.product(range(m), repeat=rank):
            orders = [
                _order_mod(sum(a * c for a, c in zip(v, cs)), m) for v in ab
            ]
            scale = screen(orders)
            if scale is None:
                continue
            res = verify("Z/%d" % m, [_cyclic_shift(m, c) for c in cs], scale)
            if res is not None:
                return res
    # Phase B: products of two cyclic groups.
    for m1 in range(2, max_pair_modulus + 1):
        for m2 in range(m1, max_pair_modulus + 1):
            if not _abelian_degrees_possible(gcds, degrees, (m1, m2)):
                continue
            for cs in itertools.product(range(m1), range(m2), repeat=rank):
                orders = []
                for v in ab:
                    o1 = _order_mod(sum(a * cs[2 * i] for i, a in enumerate(v)), m1)
                    o2 = _order_mod(sum(a * cs[2 * i + 1] for i, a in enumerate(v)), m2)
                    orders.append(o1 * o2 // math.gcd(o1, o2))
                scale = screen(orders)
                if scale is None:
                    continue
                perms = [
                    _pair_shift(m1, m2, cs[2 * i], cs[2 * i + 1])
                    for i in range(rank)
                ]
                res = verify("Z/%d x Z/%d" % (m1, m2), perms, scale)
                if res is not None:
                    return res
    # Phase C: images of transitive actions on few points, for words the
    # abelian phases cannot separate.
    for n in range(2, max_perm_index + 1):
        for t in enumerate_subgroups(rank, n):
            perms = list(t.action)
            inv = [_invert_perm(p) for p in perms]
            orders = [_perm_order(_word_perm(perms, inv, w)) for w in words]
            scale = screen(orders)
            if scale is None:
                continue
            res = verify("image of an index-%d action" % n, perms, scale)
            if res is not None:
                return res
    return None
