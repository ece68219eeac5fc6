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
non-conjugate classes.

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
from functools import cached_property, lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .words import (
    ConjClass, Frozen, Word, _least_rotation, _set, abelianize_word, check_int,
    conj_canonical, identity,
)

Target = Union[Word, ConjClass]


def _invert_perm(p: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * len(p)
    for i, a in enumerate(p):
        out[a] = i
    return tuple(out)


class CosetTable(Frozen):
    """Transitive right action of free-group generators on {0..n-1}.

    ``action[i]`` is the permutation of generator i+1; negative letters act
    by the inverse permutation ``_inverse[i]``.  The inverses and the hash
    are computed once: tables key the memoised searches of this layer and
    of the covers layer.
    """

    FIELDS = ("rank", "action")
    __slots__ = FIELDS + ("_inverse", "_hash")

    def __init__(self, rank: int, action: Tuple[Tuple[int, ...], ...]):
        check_int(rank, "rank")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if len(action) != rank:
            raise ValueError("need one permutation per generator")
        n = len(action[0])
        if n < 1:
            raise ValueError("need at least one coset")
        for row in action:
            for a in row:
                check_int(a, "action")
            if sorted(row) != list(range(n)):
                raise ValueError("each generator must act by a permutation")
        inverse = tuple(_invert_perm(row) for row in action)
        seen = {0}
        queue = [0]
        while queue:
            a = queue.pop()
            for row in itertools.chain(action, inverse):
                b = row[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        if len(seen) != n:
            raise ValueError("action is not transitive")
        _set(self, "rank", rank)
        _set(self, "action", action)
        _set(self, "_inverse", inverse)
        _set(self, "_hash", hash((rank, action)))

    def __hash__(self):
        return self._hash

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


# ---------------------------------------------------------------------------
# Schreier representatives, basis and rewriting


class SchreierData(Frozen):
    """The breadth-first Schreier tree of a table and the basis it gives.

    ``tree`` lists the tree edges (a, letter, a.letter) in the order the
    search found them, and ``edge_basis`` the non-tree positive edges
    (coset, generator, 1-based index), each naming one basis letter.  The
    representative words ``reps`` are built when first read: rewriting
    needs only the edges.  The instance keeps a ``__dict__`` for its
    cached properties.
    """

    FIELDS = ("table", "tree", "edge_basis")

    @cached_property
    def reps(self) -> Tuple[Word, ...]:
        r = self.table.rank
        reps = [identity(r)] * self.table.size
        for a, letter, b in self.tree:
            reps[b] = reps[a] * Word((letter,), r)
        return tuple(reps)

    @cached_property
    def steps(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """For each letter x (either sign) and coset a: a.x, and the basis
        letter crossing that edge writes, 0 on a tree edge (built once)."""
        table = self.table
        emit = {(a, x): k for a, x, k in self.edge_basis}
        out: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        for x in range(1, table.rank + 1):
            fwd, bwd = table.action[x - 1], table._inverse[x - 1]
            out[x] = tuple((b, emit.get((a, x), 0)) for a, b in enumerate(fwd))
            out[-x] = tuple((b, -emit.get((b, x), 0)) for b in bwd)
        return out

    def walk(self, letters: Sequence[int], start: int) -> Tuple[List[int], int]:
        """Follow the letters from coset ``start``; returns the basis letters
        the walk writes, and the coset it ends at.  Tree edges write nothing
        (Reidemeister-Schreier rewriting).

        Freely reduced letters write a freely reduced word: adjacent
        letters k, -k would cross one non-tree edge there and back with a
        closed walk on tree edges between.  That walk is empty or, being a
        closed walk in a tree, turns back on some edge; either way two
        adjacent letters cancel, which reduced letters never do.
        """
        steps = self.steps
        out: List[int] = []
        cur = start
        for letter in letters:
            cur, k = steps[letter][cur]
            if k:
                out.append(k)
        return out, cur


@lru_cache(maxsize=None)
def schreier(table: CosetTable) -> SchreierData:
    """Breadth-first Schreier data for the subgroup at coset 0."""
    n, r = table.size, table.rank
    letters = []
    for x in range(1, r + 1):
        letters.extend((x, -x))
    seen = [True] + [False] * (n - 1)
    tree: List[Tuple[int, int, int]] = []
    positive: set = set()
    queue = [0]
    while queue:
        nxt = []
        for a in queue:
            for letter in letters:
                b = table.act(a, letter)
                if not seen[b]:
                    seen[b] = True
                    tree.append((a, letter, b))
                    positive.add((a, letter) if letter > 0 else (b, -letter))
                    nxt.append(b)
        queue = nxt
    edge_basis: List[Tuple[int, int, int]] = []
    for a in range(n):
        for x in range(1, r + 1):
            if (a, x) not in positive:
                edge_basis.append((a, x, len(edge_basis) + 1))
    return SchreierData(table, tuple(tree), tuple(edge_basis))


def rewrite(table: CosetTable, w: Word) -> Word:
    """Express a subgroup element in the Schreier basis of the subgroup."""
    sd = schreier(table)
    out, cur = sd.walk(w.letters, 0)
    if cur != 0:
        raise ValueError("word does not lie in the subgroup")
    return Word(tuple(out), len(sd.edge_basis))


# ---------------------------------------------------------------------------
# Elevations


class Elevation(Frozen):
    """One cycle of the permutation a cyclically reduced word induces.

    ``cycle`` starts at the least coset it contains and follows the action
    of the word on ``table``.  ``rep`` is rep(m) * w**degree * rep(m)**-1
    at that least coset m, and ``local`` is its class written in the
    subgroup basis; both are computed when first read, and the instance
    keeps a ``__dict__`` for them.  rep(m) runs along Schreier tree edges
    only, which write no basis letter, so ``local`` walks w**degree once
    around the cycle from m and never builds ``rep``.
    """

    FIELDS = ("base", "cycle", "table")

    @property
    def degree(self) -> int:
        return len(self.cycle)

    @cached_property
    def rep(self) -> Word:
        r = schreier(self.table).reps[self.cycle[0]]
        return r * self.base.canonical.power(self.degree) * r.inverse()

    @cached_property
    def local(self) -> ConjClass:
        """The walk's class, with no cyclic reduction.

        Lemma: the closed walk of a cyclically reduced word around its
        cycle rewrites to a cyclically reduced word.  The argument of
        ``SchreierData.walk`` applies to the walk read cyclically: it ends
        where it starts, and w**degree read cyclically is freely reduced.
        The walk is not empty: it rewrites a conjugate of w**degree, which
        a free group never makes trivial.  So its least rotation is the canonical representative,
        which ``ConjClass`` checks."""
        sd = schreier(self.table)
        out, _ = sd.walk(self.base.canonical.letters * self.degree, self.cycle[0])
        return ConjClass(Word(_least_rotation(tuple(out)), len(sd.edge_basis)))


def elevations(table: CosetTable, target: Target) -> List[Elevation]:
    cls = target if isinstance(target, ConjClass) else conj_canonical(target)
    if cls.is_trivial():
        raise ValueError("elevations of the trivial class are not defined")
    if cls.rank != table.rank:
        raise ValueError("rank mismatch")
    w = cls.canonical
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
        out.append(Elevation(cls, tuple(cycle), table))
    return out


# ---------------------------------------------------------------------------
# Enumeration of subgroups up to conjugacy


def _bfs_encoding(table: CosetTable, start: int) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """Renumber cosets by first appearance from ``start``, rows read in
    (coset, generator) order; returns (flat renumbered action, old -> new)."""
    pos = {start: 0}
    order = [start]
    out = []
    for old in order:
        for row in table.action:
            new = pos.get(row[old])
            if new is None:
                new = pos[row[old]] = len(order)
                order.append(row[old])
            out.append(new)
    return tuple(out), pos


def _precedes(fwd: List[List[int]], start: int) -> bool:
    """Whether renumbering the completed standard table ``fwd`` from coset
    ``start`` gives a smaller flat encoding than its own.

    A standard table numbers its cosets by first appearance in (coset,
    generator) order, so its own encoding is its rows read in that order.
    The renumbering from ``start`` is compared with it entry by entry and
    dropped at the first entry that differs, as in the canonicity test of
    Sims' low-index algorithm.
    """
    pos = [-1] * len(fwd[0])
    pos[start] = 0
    order = [start]
    for i, old in enumerate(order):
        for row in fwd:
            new = pos[row[old]]
            if new < 0:
                new = pos[row[old]] = len(order)
                order.append(row[old])
            if new != row[i]:
                return new < row[i]
    return False


def enumerate_subgroups(rank: int, idx: int) -> Iterator[CosetTable]:
    """One table per conjugacy class of subgroups of the exact given index.

    Tables come out in a fixed depth-first order.  Each completed standard
    table is tested for class-minimality on its raw rows (``_precedes``),
    and a ``CosetTable`` is built only for the tables that pass.
    """
    if rank < 1 or idx < 1:
        raise ValueError("rank and index must be positive")
    if idx == 1:
        yield whole_group_table(rank)
        return
    fwd = [[-1] * idx for _ in range(rank)]
    bwd = [[-1] * idx for _ in range(rank)]
    slots = [(a, x) for a in range(idx) for x in range(rank)]
    yield from _standard_tables(fwd, bwd, slots, 0, 1)


def _standard_tables(
    fwd: List[List[int]], bwd: List[List[int]], slots: List[Tuple[int, int]], si: int, used: int
) -> Iterator[CosetTable]:
    """The class-minimal completions of the partial standard table
    ``fwd`` (``bwd`` its inverse) on ``used`` cosets, whose slots before
    the si-th are decided, in depth-first order."""
    n = len(fwd[0])
    if si == len(slots):
        if used == n and not any(_precedes(fwd, s) for s in range(1, n)):
            yield CosetTable(len(fwd), tuple(tuple(row) for row in fwd))
        return
    a, x = slots[si]
    if a >= used:
        return
    if fwd[x][a] != -1:
        yield from _standard_tables(fwd, bwd, slots, si + 1, used)
        return
    top = used + 1 if used < n else used
    for b in range(top):
        if bwd[x][b] != -1:
            continue
        fwd[x][a] = b
        bwd[x][b] = a
        yield from _standard_tables(fwd, bwd, slots, si + 1, used + 1 if b == used else used)
        fwd[x][a] = -1
        bwd[x][b] = -1


# ---------------------------------------------------------------------------
# Prescribing elevation degrees via small finite quotients


class PrescribeResult(Frozen):
    """A normal subgroup realizing prescribed elevation degrees.

    Every elevation of the i-th word has degree scale * degrees[i]; the
    table is the regular action of the finite quotient named in
    ``quotient``.
    """

    FIELDS = ("table", "scale", "quotient")
    __slots__ = FIELDS


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


def _primitive_root(w: Word) -> Tuple[Word, int]:
    """(r, i) with w = r^i letter for letter: r is the least period of w."""
    n = len(w.letters)
    for p in range(1, n + 1):
        if n % p == 0 and w.letters[:p] * (n // p) == w.letters:
            return Word(w.letters[:p], w.rank), n // p


def _power_degrees_possible(i: int, j: int, d1: int, d2: int) -> bool:
    """Whether some integers o and s give r^i and r^j, for r of order o,
    the orders s * d1 and s * d2 (the lemma in ``prescribe_degrees``)."""
    lcm = math.lcm(i, j)
    for g in range(1, lcm + 1):
        x = d1 * math.gcd(g, i)
        if lcm % g == 0 and x == d2 * math.gcd(g, j) and g % math.gcd(x, lcm) == 0:
            return True
    return False


def prescribe_degrees(
    rank: int,
    targets: Sequence[Target],
    degrees: Sequence[int],
    max_modulus: int = 60,
    max_pair_modulus: int = 12,
    max_perm_index: int = 5,
) -> Optional[PrescribeResult]:
    """Find a normal subgroup where the words elevate with the prescribed
    degrees, up to one common scale factor.

    Scans a fixed schedule of finite quotients (cyclic, products of two
    cyclics, then images of small transitive actions) and returns the first
    hit; every elevation of targets[i] in the resulting table has degree
    scale * degrees[i], where scale * degrees[i] is the order of the class
    of targets[i] in the quotient.  Returns None when the schedule is
    exhausted, and at once when two targets' degrees contradict a power
    relation between their classes:

    - A class and its inverse have equal orders in every quotient.  If the
      class of targets[j] is the k-th power of that of targets[i], up to
      inversion, then ord(w^k) = ord(w) / gcd(ord(w), k) with
      ord(w) = s * degrees[i], so a hit at scale s needs degrees[i] =
      degrees[j] * gcd(s * degrees[i], k).  That gcd then divides both
      degrees[i] and k, so it is gcd(degrees[i], k) whatever s is: unless
      degrees[i] = degrees[j] * gcd(degrees[i], k), no quotient can hit.
      k = 1 is one class up to inversion with different degrees.
    - More generally, let the classes be r^i and r^j for a primitive class
      r, up to inversion; canonical words are cyclically reduced, so r is
      the least period of each word (``_primitive_root``).  With o = ord(r)
      and L = lcm(i, j), put g = gcd(o, L); then gcd(o, i) = gcd(g, i), so
      a hit at scale s needs o = s * d1 * gcd(g, i) = s * d2 * gcd(g, j)
      for the two degrees d1, d2.  So some divisor g of L has d1 * gcd(g,
      i) = d2 * gcd(g, j) =: x, and g = gcd(s * x, L) is a multiple of
      gcd(x, L).  Conversely such a g gives integers o and s meeting both
      orders, so ``_power_degrees_possible`` is exactly this test; with
      i = 1 and j = k it is the k-th power rule above.

    The abelian phases skip each modulus, or pair of moduli, in which some
    word's order is bounded by a number that degrees[i] does not divide
    (see ``_abelian_degrees_possible``), and skip both phases when a word
    with zero exponent sums has a degree above 1: it maps to 0, of order 1,
    in every abelian quotient.  Every candidate skipped this way would fail
    the screen, so the scan order, and with it the first hit (table, scale
    and quotient name), is that of the full schedule.
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
    for d in degrees:
        check_int(d, "degrees")
    if any(d < 1 for d in degrees):
        raise ValueError("need one positive degree per word")
    # Degrees that no scale can give two powers of one class (see the
    # docstring).
    powers = [_primitive_root(w) for w in words]
    for ((r1, i), d1), ((r2, j), d2) in itertools.combinations(zip(powers, degrees), 2):
        if _power_degrees_possible(i, j, d1, d2) or len(r1) != len(r2):
            continue
        if r2 in (r1, conj_canonical(r1.inverse()).canonical):
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

    def verify(
        name: str, perms: List[Tuple[int, ...]], scale: int, order: int = 0
    ) -> Optional[PrescribeResult]:
        # Independent re-check: build the regular table of the image and
        # read every elevation degree off the table itself.  ``order`` is
        # that of the group ``name`` names; a map onto a proper subgroup is
        # named by its image.
        table = regular_table(perms, rank)
        if not is_regular(table):
            return None
        for w, d in zip(words, degrees):
            if any(e.degree != scale * d for e in elevations(table, w)):
                return None
        if order and table.size != order:
            name = "image in " + name
        return PrescribeResult(table, scale, "%s (order %d)" % (name, table.size))

    # A zero-sum word of degree above 1 rules out every abelian quotient.
    abelian = all(g or d == 1 for g, d in zip(gcds, degrees))
    # Phase A: cyclic quotients.  Orders come from exponent sums, so the
    # screen is a few integer operations per candidate.
    for m in range(2, max_modulus + 1) if abelian else ():
        if not _abelian_degrees_possible(gcds, degrees, (m,)):
            continue
        for cs in itertools.product(range(m), repeat=rank):
            orders = [
                _order_mod(sum(a * c for a, c in zip(v, cs)), m) for v in ab
            ]
            scale = screen(orders)
            if scale is None:
                continue
            res = verify("Z/%d" % m, [_cyclic_shift(m, c) for c in cs], scale, m)
            if res is not None:
                return res
    # Phase B: products of two cyclic groups.
    for m1 in range(2, max_pair_modulus + 1) if abelian else ():
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
                res = verify("Z/%d x Z/%d" % (m1, m2), perms, scale, m1 * m2)
                if res is not None:
                    return res
    # Phase C: images of transitive actions on few points, for words the
    # abelian phases cannot separate.
    for n in range(2, max_perm_index + 1):
        for t in enumerate_subgroups(rank, n):
            perms = list(t.action)
            orders = [_perm_order(_word_perm(perms, t._inverse, w)) for w in words]
            scale = screen(orders)
            if scale is None:
                continue
            res = verify("image of an index-%d action" % n, perms, scale)
            if res is not None:
                return res
    return None
