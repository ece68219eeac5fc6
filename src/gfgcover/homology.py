"""Exact integer homology: Smith normal form and abelian group bookkeeping.

All arithmetic is on Python ints, so entries may grow without overflow.  The
Smith normal form follows a fixed pivot rule (smallest nonzero absolute
value, ties broken row-major) so that every run of the workbench produces
identical transforms.  ``snf`` returns the full (U, D, V) with U, V
unimodular and U * A * V = D; ``cokernel`` runs the same elimination
without U and V and returns the group's invariants only.

Finitely generated abelian groups are stored as (betti, divisors) with each
divisor >= 2 and a divisibility chain.  Group elements are integer vectors
in the normalized coordinates of a Smith form: torsion coordinates first
(mod the matching divisor), then free coordinates.  ``class_image`` is the
one function that needs coordinates, and it reads them off ``snf``'s V.

The tower ledger at the bottom tracks per-prime torsion exponents against
cover degrees in exact rational arithmetic (the ratio uses the base-p
logarithm, i.e. the exponent itself, which keeps everything in Q).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .words import Frozen, Value, _set


# ---------------------------------------------------------------------------
# Integer matrices


class IntMatrix(Frozen):
    FIELDS = ("entries", "cols")
    __slots__ = FIELDS

    def __init__(self, entries: Tuple[Tuple[int, ...], ...], cols: int):
        if any(len(row) != cols for row in entries):
            raise ValueError("matrix rows must all have %d entries" % cols)
        _set(self, "entries", entries)
        _set(self, "cols", cols)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """Rows of equal width; ``cols`` gives the width of a matrix with no
        rows and, when given, must match every row."""
        rows = tuple(map(tuple, rows))
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(rows, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


def _find_pivot(a: List[List[int]], k: int) -> Optional[Tuple[int, int]]:
    # Smallest nonzero absolute value in a[k:][k:]; ties row-major.
    best = None
    best_val = None
    for i in range(k, len(a)):
        row = a[i]
        for j in range(k, len(row)):
            e = row[j]
            if e:
                if best_val is None or abs(e) < best_val:
                    best_val = abs(e)
                    best = (i, j)
                    if best_val == 1:
                        return best
    return best


def _smith(w: List[List[int]], n: int, u=None, v=None) -> None:
    """Reduce the rows ``w`` (each of width n) to Smith form in place.

    Row operations are mirrored on ``u`` and column operations on ``v``
    when they are given; without them the elimination keeps only what the
    invariant factors need.  Every step keeps rows and columns before the
    current one zero off the diagonal, so a row operation starts at the
    current column and clearing the pivot row touches that row alone.
    """
    m = len(w)
    for k in range(min(m, n)):
        while True:
            piv = _find_pivot(w, k)
            if piv is None:
                return
            pi, pj = piv
            if pi != k:
                w[k], w[pi] = w[pi], w[k]
                if u is not None:
                    u[k], u[pi] = u[pi], u[k]
            if pj != k:
                for row in w:
                    row[k], row[pj] = row[pj], row[k]
                if v is not None:
                    for row in v:
                        row[k], row[pj] = row[pj], row[k]
            wk = w[k]
            p = wk[k]
            dirty = False
            for i in range(k + 1, m):
                wi = w[i]
                if wi[k]:
                    q = wi[k] // p
                    if q:
                        for j in range(k, n):
                            wi[j] -= q * wk[j]
                        if u is not None:
                            ui, uk = u[i], u[k]
                            for j in range(m):
                                ui[j] -= q * uk[j]
                    if wi[k]:
                        dirty = True
            if dirty:
                continue
            # Column k is now zero off the pivot, so a column operation
            # against it changes only the pivot row.
            for j in range(k + 1, n):
                if wk[j]:
                    q = wk[j] // p
                    if q:
                        wk[j] -= q * p
                        if v is not None:
                            for row in v:
                                row[j] -= q * row[k]
                    if wk[j]:
                        dirty = True
            if dirty:
                continue
            if p == 1 or p == -1:
                break
            bad_row = None
            for i in range(k + 1, m):
                wi = w[i]
                if any(wi[j] % p for j in range(k + 1, n)):
                    bad_row = i
                    break
            if bad_row is None:
                break
            wb = w[bad_row]
            for j in range(k, n):
                wk[j] += wb[j]
            if u is not None:
                uk, ub = u[k], u[bad_row]
                for j in range(m):
                    uk[j] += ub[j]
        if w[k][k] < 0:
            w[k][k] = -w[k][k]
            if u is not None:
                u[k] = [-x for x in u[k]]


def snf(a: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (U, D, V) with U*a*V = D.

    D is diagonal with non-negative entries in a divisibility chain
    (d_1 | d_2 | ...), and U, V are unimodular.  The oracle for
    ``cokernel``, which runs the same elimination without U and V.

    >>> u, d, v = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> d.diagonal()
    (2, 4)
    """
    m, n = a.rows, a.cols
    w = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    _smith(w, n, u, v)
    U = IntMatrix(tuple(tuple(row) for row in u), m)
    V = IntMatrix(tuple(tuple(row) for row in v), n)
    D = IntMatrix(tuple(tuple(row) for row in w), n)
    return U, D, V


# ---------------------------------------------------------------------------
# Finitely generated abelian groups


class AbelianGroup(Frozen):
    """Z^betti plus cyclic factors Z/d_1 + ... + Z/d_k, d_1 | d_2 | ...

    Elements are integer vectors of length k + betti, torsion coordinates
    first.
    """

    FIELDS = ("betti", "divisors")
    __slots__ = FIELDS

    def __init__(self, betti: int, divisors: Tuple[int, ...]):
        for d in divisors:
            if d < 2:
                raise ValueError("divisors must be >= 2")
        for a, b in zip(divisors, divisors[1:]):
            if b % a:
                raise ValueError("divisors must form a divisibility chain")
        _set(self, "betti", betti)
        _set(self, "divisors", divisors)

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append("Z^%d" % self.betti)
        parts.extend("Z/%d" % d for d in self.divisors)
        return " ⊕ ".join(parts) if parts else "0"


def cokernel(a: IntMatrix) -> AbelianGroup:
    """Z^cols modulo the row space of a, as betti and divisors.

    The Smith elimination of ``snf`` with no transforms kept.

    >>> str(cokernel(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])))
    'Z ⊕ Z/6'
    """
    w = [list(row) for row in a.entries]
    _smith(w, a.cols)
    diag = [w[i][i] for i in range(min(a.rows, a.cols))]
    rank = sum(1 for d in diag if d)
    return AbelianGroup(a.cols - rank, tuple(d for d in diag if d >= 2))


def _clear(row: Dict[int, int], piv: Dict[int, int], c: int, p: int) -> Dict[int, int]:
    """A new row: ``row`` less the multiple of the pivot row ``piv`` that
    clears column c.  Over F_p (p > 0) piv[c] is 1; over Q (p = 0) the rows
    are integral, and the result is divided by the gcd of its entries
    whenever row was scaled by more than a sign to clear c."""
    f = row[c]
    if p:
        out = row.copy()
        for k, x in piv.items():
            y = (out.get(k, 0) - f * x) % p
            if y:
                out[k] = y
            else:
                del out[k]
        return out
    s = piv[c]
    g = math.gcd(f, s)
    s //= g
    f //= g
    out = row.copy() if s == 1 else {k: s * x for k, x in row.items()}
    for k, x in piv.items():
        y = out.get(k, 0) - f * x
        if y:
            out[k] = y
        else:
            del out[k]
    if s != 1 and s != -1 and out:
        g = math.gcd(*out.values())
        if g > 1:
            out = {k: x // g for k, x in out.items()}
    return out


def rank_coloops(a: IntMatrix, p: int = 0) -> Tuple[int, FrozenSet[int]]:
    """The rank of a over F_p, or over Q when p is 0, and its coloops: the
    columns j whose deletion drops the rank by one.

    Deleting column j maps the row space R onto that of a without column
    j, with kernel R ∩ span(e_j), so j is a coloop exactly when e_j lies in
    R.  In reduced echelon form that means column j's pivot row has no
    other nonzero entry.  Gauss–Jordan elimination on sparse rows
    ({column: value}): each row is reduced against the pivot rows, and its
    first remaining column becomes a pivot, cleared from the other pivot
    rows.  Over F_p a pivot row is scaled to make its pivot 1; over Q the
    rows stay integral, divided by the gcd of their entries.

    >>> rank_coloops(IntMatrix.from_rows([[2, 0, 0], [0, 3, 3]]))
    (2, frozenset({0}))
    >>> rank_coloops(IntMatrix.from_rows([[2, 0, 0], [0, 3, 3]]), 2)
    (1, frozenset())
    """
    pivots: Dict[int, Dict[int, int]] = {}
    for entries in a.entries:
        if p:
            row = {j: x % p for j, x in enumerate(entries) if x % p}
        else:
            row = {j: x for j, x in enumerate(entries) if x}
        for c in [c for c in row if c in pivots]:
            row = _clear(row, pivots[c], c, p)
        if not row:
            continue
        c = next(iter(row))
        if p:
            if row[c] != 1:
                inv = pow(row[c], -1, p)
                row = {k: x * inv % p for k, x in row.items()}
        else:
            g = math.gcd(*row.values())
            if g > 1:
                row = {k: x // g for k, x in row.items()}
        for k, other in pivots.items():
            if c in other:
                pivots[k] = _clear(other, row, c, p)
        pivots[c] = row
    return len(pivots), frozenset(c for c, row in pivots.items() if len(row) == 1)


def p_rank(a: AbelianGroup, p: int) -> int:
    """Number of invariant factors divisible by p (rank of the p-part).

    >>> p_rank(AbelianGroup(1, (2, 4)), 2)
    2
    """
    _check_prime(p)
    return sum(1 for d in a.divisors if d % p == 0)


def torsion_exponent(a: AbelianGroup, p: int) -> int:
    """Sum of p-adic valuations of the invariant factors (log_p of the
    p-part's order)."""
    _check_prime(p)
    total = 0
    for d in a.divisors:
        while d % p == 0:
            total += 1
            d //= p
    return total


# The first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every n < 2**64 (indeed below 3.3 * 10**24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below 2**64.

    Deterministic Miller-Rabin, so a 64-bit prime costs a dozen modular
    exponentiations instead of a trial division up to its square root.

    >>> _check_prime(2 ** 61 - 1)
    >>> _check_prime(561)
    Traceback (most recent call last):
    ...
    ValueError: 561 is not prime
    """
    if p >= 2 ** 64:
        raise ValueError("primes must be below 2**64")
    if p < 2:
        raise ValueError("%d is not prime" % p)
    for q in _MR_BASES:
        if p % q == 0:
            if p == q:
                return
            raise ValueError("%d is not prime" % p)
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError("%d is not prime" % p)


# ---------------------------------------------------------------------------
# First homology of graphs of groups


def h1(g) -> AbelianGroup:
    """H_1 of a graph of groups (or of a morphism's total).

    The input must be connected.
    """
    return h1_mod_cyclic(g, ())


def cyclic_column(g, roster, v: str) -> int:
    """Column of cyclic vertex v's generator in ``abelianized_presentation(g)``."""
    if g.vertex_kind.get(v) != "cyclic":
        raise ValueError("vertex %r is not cyclic" % v)
    return roster.index(("vertex", v, 0))


def class_image(g, target) -> Tuple[int, ...]:
    """Image in H_1(g) of a cyclic vertex generator or of a class at a vertex.

    ``target`` is either the name of a cyclic vertex, or a pair
    (vertex_name, word) with the word in that vertex group's basis.  The
    image is read off ``snf`` of the presentation: V carries the
    presentation's generators to the Smith coordinates, torsion ones first.
    """
    from . import gog as _gog
    from .words import abelianize_word

    if hasattr(g, "total"):
        g = g.total
    roster, matrix = _gog.abelianized_presentation(g)
    vec = [0] * matrix.cols
    if isinstance(target, str):
        vec[cyclic_column(g, roster, target)] = 1
    else:
        vertex, word = target
        if hasattr(word, "canonical"):
            word = word.canonical
        for i, c in enumerate(abelianize_word(word)):
            vec[roster.index(("vertex", vertex, i))] += c
    _, d, v = snf(matrix)
    diag = d.diagonal() + (0,) * (matrix.cols - min(matrix.rows, matrix.cols))
    keep = [i for i, e in enumerate(diag) if e >= 2] + [i for i, e in enumerate(diag) if e == 0]
    out = []
    for i in keep:
        x = sum(c * v.entries[j][i] for j, c in enumerate(vec) if c)
        out.append(x % diag[i] if diag[i] else x)
    return tuple(out)


def h1_mod_cyclic(g, vertices: Sequence[str]) -> AbelianGroup:
    """H_1 of g (or of a morphism's total) with the generators of the given
    cyclic vertices killed.

    Killing the generator of column j adds the relation e_j, one unit row,
    to the presentation of H_1, and ``cokernel`` reads the group off the
    result: the quotient of ``h1(g)`` by the ``class_image`` of each
    vertex.  Z^n/(R + Z·e_j) ≅ Z^(n-1)/R_j, where R_j is R with column j
    deleted, so killing a generator is deleting its column.
    """
    from . import gog as _gog

    if hasattr(g, "total"):
        g = g.total
    roster, matrix = _gog.abelianized_presentation(g)
    kills = [cyclic_column(g, roster, v) for v in vertices]
    units = tuple(tuple(int(k == j) for k in range(matrix.cols)) for j in kills)
    return cokernel(IntMatrix(matrix.entries + units, matrix.cols))


# ---------------------------------------------------------------------------
# Tower ledger


class LedgerRow(Value):
    FIELDS = ("step", "prime", "degree", "exponents")
    __slots__ = FIELDS

    def ratio(self, p: int) -> Fraction:
        return Fraction(self.exponents.get(p, 0), self.degree)


class TowerLedger(Value):
    """Per-step torsion bookkeeping for a tower of covers.

    ``intro`` maps each tracked prime to (introduction step, recorded
    pre-degree bound for the torsion piece over the tower's base).  Ratios
    are exact: exponent of p over cumulative degree, i.e. the base-p
    logarithm of the torsion order per sheet.  Both default to new empty
    containers.
    """

    FIELDS = ("intro", "rows")
    __slots__ = FIELDS

    def __init__(
        self,
        intro: Optional[Dict[int, Tuple[int, int]]] = None,
        rows: Optional[List[LedgerRow]] = None,
    ):
        self.intro = {} if intro is None else intro
        self.rows = [] if rows is None else rows


def ledger_update(
    ledger: TowerLedger,
    *,
    step: int,
    prime: int,
    degree: int,
    exponents: Dict[int, int],
    piece_predegree: int,
) -> LedgerRow:
    """Append a row; degrees must strictly multiply up the tower."""
    _check_prime(prime)
    if ledger.rows:
        prev = ledger.rows[-1]
        if step != prev.step + 1:
            raise ValueError("steps must be consecutive")
        if degree % prev.degree or degree <= prev.degree:
            raise ValueError("degree must be a proper multiple of the previous degree")
    elif step != 1:
        raise ValueError("first row must be step 1")
    if prime not in ledger.intro:
        if piece_predegree < 1:
            raise ValueError("piece predegree must be positive")
        ledger.intro[prime] = (step, piece_predegree)
    row = LedgerRow(step=step, prime=prime, degree=degree, exponents=dict(exponents))
    ledger.rows.append(row)
    return row


def ledger_bound(ledger: TowerLedger, p: int, step: int) -> Fraction:
    """Displayed lower bound for ratio_p at the given step."""
    i, predeg = ledger.intro[p]
    prod = Fraction(1)
    for j in range(i + 1, step + 1):
        prod *= 1 - Fraction(1, 2 ** j)
    return prod / (2 ** (i + 1) * predeg)


def ledger_check(ledger: TowerLedger) -> List[str]:
    """Verify every row's per-prime ratio against the displayed bound.

    Exact rational arithmetic throughout; returns a list of violations
    (empty when the ledger is consistent).
    """
    problems = []
    for p, (i, _) in sorted(ledger.intro.items()):
        for row in ledger.rows:
            if row.step < i:
                continue
            bound = ledger_bound(ledger, p, row.step)
            got = row.ratio(p)
            if got < bound:
                problems.append(
                    "step %d prime %d: ratio %s below bound %s" % (row.step, p, got, bound)
                )
    for a, b in zip(ledger.rows, ledger.rows[1:]):
        if b.degree % a.degree or b.degree <= a.degree:
            problems.append("degrees do not multiply at step %d" % b.step)
    return problems
