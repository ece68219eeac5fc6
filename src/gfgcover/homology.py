"""Exact integer homology: Smith normal form and abelian group bookkeeping.

All arithmetic is on Python ints, so entries may grow without overflow.  The
Smith normal form follows a fixed pivot rule (smallest nonzero absolute
value, ties broken row-major) so that every run of the workbench produces
identical transforms.  ``snf`` returns the full (U, D, V) with U, V
unimodular and U * A * V = D; ``cokernel_invariants`` runs the same
elimination without U and V when only the invariant factors are wanted.

Finitely generated abelian groups are stored as (betti, divisors) with each
divisor >= 2 and a divisibility chain, plus an optional basis_map recording
where the original presentation generators land.  Only ``cokernel`` (and
``class_image`` and ``quotient_by``, which go through it) fills in the
basis_map; ``h1`` and ``h1_mod_cyclic`` results carry none.  Group elements
are integer vectors in these normalized coordinates: torsion coordinates
first (mod the matching divisor), then free coordinates.

The tower ledger at the bottom tracks per-prime torsion exponents against
cover degrees in exact rational arithmetic (the ratio uses the base-p
logarithm, i.e. the exponent itself, which keeps everything in Q).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Integer matrices


@dataclass(frozen=True)
class IntMatrix:
    entries: Tuple[Tuple[int, ...], ...]
    cols: int

    def __post_init__(self):
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("matrix rows must all have %d entries" % self.cols)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """Rows of equal width; ``cols`` gives the width of a matrix with no
        rows and, when given, must match every row."""
        rows = tuple(tuple(int(a) for a in row) for row in rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries
        )
        return IntMatrix(out, other.cols)

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def without_columns(self, drop: Iterable[int]) -> "IntMatrix":
        drop = set(drop)
        keep = [j for j in range(self.cols) if j not in drop]
        return IntMatrix(tuple(tuple(row[j] for j in keep) for row in self.entries), len(keep))


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
    ``cokernel_invariants``, which runs the same elimination without U and V.

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


@dataclass(frozen=True)
class AbelianGroup:
    """Z^betti plus cyclic factors Z/d_1 + ... + Z/d_k, d_1 | d_2 | ...

    Elements are integer vectors of length k + betti, torsion coordinates
    first.  basis_map (optional) has one row per generator of the
    presentation this group was computed from.
    """

    betti: int
    divisors: Tuple[int, ...]
    basis_map: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self):
        for d in self.divisors:
            if d < 2:
                raise ValueError("divisors must be >= 2")
        for a, b in zip(self.divisors, self.divisors[1:]):
            if b % a:
                raise ValueError("divisors must form a divisibility chain")
        if self.basis_map is not None:
            width = len(self.divisors) + self.betti
            if any(len(row) != width for row in self.basis_map):
                raise ValueError("basis_map width mismatch")

    @property
    def coords(self) -> int:
        return len(self.divisors) + self.betti

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.divisors

    def order(self) -> int:
        if self.betti:
            raise ValueError("infinite group")
        n = 1
        for d in self.divisors:
            n *= d
        return n

    def isomorphic(self, other: "AbelianGroup") -> bool:
        return self.betti == other.betti and self.divisors == other.divisors

    def reduce_element(self, vec: Sequence[int]) -> Tuple[int, ...]:
        if len(vec) != self.coords:
            raise ValueError("element has %d coordinates, expected %d" % (len(vec), self.coords))
        out = []
        for i, d in enumerate(self.divisors):
            out.append(vec[i] % d)
        out.extend(int(a) for a in vec[len(self.divisors):])
        return tuple(out)

    def generator_image(self, j: int) -> Tuple[int, ...]:
        if self.basis_map is None:
            raise ValueError("group has no basis_map")
        return self.basis_map[j]

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append("Z^%d" % self.betti)
        parts.extend("Z/%d" % d for d in self.divisors)
        return " ⊕ ".join(parts) if parts else "0"


def cokernel(a: IntMatrix) -> AbelianGroup:
    """Z^cols modulo the row space of a.

    >>> str(cokernel(IntMatrix.from_rows([[2, 0], [0, 3]])))
    'Z/6'
    """
    n = a.cols
    if a.rows == 0:
        return AbelianGroup(n, (), IntMatrix.identity(n).entries)
    _, d, v = snf(a)
    diag = list(d.diagonal()) + [0] * (n - min(a.rows, n))
    torsion = [i for i, e in enumerate(diag) if e >= 2]
    free = [i for i, e in enumerate(diag) if e == 0]
    divisors = tuple(diag[i] for i in torsion)
    keep = torsion + free
    rows = []
    for j in range(n):
        vec = [v.entries[j][i] for i in keep]
        for t, i in enumerate(torsion):
            vec[t] %= diag[i]
        rows.append(tuple(vec))
    return AbelianGroup(len(free), divisors, tuple(rows))


def cokernel_invariants(a: IntMatrix) -> AbelianGroup:
    """Z^cols modulo the row space of a, as betti and divisors only.

    The Smith elimination of ``snf`` with no transforms kept; the result
    has no basis_map.

    >>> str(cokernel_invariants(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])))
    'Z ⊕ Z/6'
    """
    w = [list(row) for row in a.entries]
    _smith(w, a.cols)
    diag = [w[i][i] for i in range(min(a.rows, a.cols))]
    rank = sum(1 for d in diag if d)
    return AbelianGroup(a.cols - rank, tuple(d for d in diag if d >= 2))


def betti(a: AbelianGroup) -> int:
    return a.betti


def p_rank(a: AbelianGroup, p: int) -> int:
    """Number of invariant factors divisible by p (rank of the p-part).

    >>> p_rank(AbelianGroup(1, (2, 4)), 2)
    2
    """
    _check_prime(p)
    return sum(1 for d in a.divisors if d % p == 0)


def dim_mod_p(a: AbelianGroup, p: int) -> int:
    """dim_Fp(A/pA), computed independently of the divisor list.

    Builds the presentation of A/pA (the divisor relations plus p times
    every generator) and reads the dimension off a fresh Smith form; used as
    the cross-check dim(A/pA) - betti == p_rank.
    """
    _check_prime(p)
    k = len(a.divisors)
    width = a.coords
    rows = []
    for i, d in enumerate(a.divisors):
        rows.append([d if j == i else 0 for j in range(width)])
    for j in range(width):
        rows.append([p if i == j else 0 for i in range(width)])
    q = cokernel(IntMatrix.from_rows(rows, cols=width))
    assert q.betti == 0
    return sum(1 for d in q.divisors if d == p)


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


def _check_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValueError("%d is not prime" % p)


def quotient_by(a: AbelianGroup, xs: Iterable[Sequence[int]]) -> AbelianGroup:
    """Quotient of a by the subgroup generated by the given elements.

    Elements are vectors in a's normalized coordinates.  The result's
    basis_map expresses a's coordinates in the quotient.

    >>> str(quotient_by(AbelianGroup(0, (2, 4)), [(1, 2)]))
    'Z/4'
    """
    width = a.coords
    rows = []
    for i, d in enumerate(a.divisors):
        rows.append([d if j == i else 0 for j in range(width)])
    for x in xs:
        rows.append(list(a.reduce_element(x)))
    return cokernel(IntMatrix.from_rows(rows, cols=width))


def element_image(quotient: AbelianGroup, vec: Sequence[int]) -> Tuple[int, ...]:
    """Push a vector through a quotient_by result's basis_map."""
    if quotient.basis_map is None:
        raise ValueError("quotient has no basis_map")
    width = len(quotient.basis_map)
    if len(vec) != width:
        raise ValueError("element has wrong width")
    out = [0] * quotient.coords
    for j, c in enumerate(vec):
        if c:
            for i, e in enumerate(quotient.basis_map[j]):
                out[i] += c * e
    return quotient.reduce_element(out)


# ---------------------------------------------------------------------------
# First homology of graphs of groups


def h1(g) -> AbelianGroup:
    """H_1 of a graph of groups (or of a morphism's total), without a
    basis_map.

    The input must be connected.
    """
    return h1_mod_cyclic(g, ())


def cyclic_column(g, roster, v: str) -> int:
    """Column of cyclic vertex v's generator in ``abelianized_presentation(g)``."""
    if g.vertex_kind[v] != "cyclic":
        raise ValueError("vertex %r is not cyclic" % v)
    return roster.index(("vertex", v, 0))


def class_image(g, target) -> Tuple[int, ...]:
    """Image in H_1(g) of a cyclic vertex generator or of a class at a vertex.

    ``target`` is either the name of a cyclic vertex, or a pair
    (vertex_name, word) with the word in that vertex group's basis.
    """
    from . import gog as _gog

    if hasattr(g, "total"):
        g = g.total
    roster, matrix = _gog.abelianized_presentation(g)
    group = cokernel(matrix)
    if isinstance(target, str):
        return group.generator_image(cyclic_column(g, roster, target))
    vertex, word = target
    from .words import abelianize_word

    if hasattr(word, "canonical"):
        word = word.canonical
    vec = abelianize_word(word)
    out = [0] * group.coords
    for i, c in enumerate(vec):
        if c:
            col = roster.index(("vertex", vertex, i))
            for t, e in enumerate(group.generator_image(col)):
                out[t] += c * e
    return group.reduce_element(out)


def h1_mod_cyclic(g, vertices: Sequence[str]) -> AbelianGroup:
    """H_1 of g (or of a morphism's total) with the generators of the given
    cyclic vertices killed, as betti and divisors with no basis_map.

    Killing a generator deletes its column from the presentation of H_1,
    and ``cokernel_invariants`` reads the group off the rest.  Equal, as a
    group, to ``quotient_by`` of ``cokernel`` of the presentation by the
    ``class_image`` of each vertex.
    """
    from . import gog as _gog

    if hasattr(g, "total"):
        g = g.total
    roster, matrix = _gog.abelianized_presentation(g)
    drop = [cyclic_column(g, roster, v) for v in vertices]
    return cokernel_invariants(matrix.without_columns(drop))


# ---------------------------------------------------------------------------
# Tower ledger


@dataclass
class LedgerRow:
    step: int
    prime: int
    degree: int
    exponents: Dict[int, int]
    status: str = "ok"

    def ratio(self, p: int) -> Fraction:
        return Fraction(self.exponents.get(p, 0), self.degree)


@dataclass
class TowerLedger:
    """Per-step torsion bookkeeping for a tower of covers.

    ``intro`` maps each tracked prime to (introduction step, recorded
    pre-degree bound for the torsion piece over the tower's base).  Ratios
    are exact: exponent of p over cumulative degree, i.e. the base-p
    logarithm of the torsion order per sheet.
    """

    intro: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    rows: List[LedgerRow] = field(default_factory=list)


def ledger_update(
    ledger: TowerLedger,
    *,
    step: int,
    prime: int,
    degree: int,
    exponents: Dict[int, int],
    piece_predegree: int,
    status: str = "ok",
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
    row = LedgerRow(step=step, prime=prime, degree=degree, exponents=dict(exponents), status=status)
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
