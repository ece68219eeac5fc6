"""Words in finitely generated free groups.

A word in the free group F_r is a sequence of nonzero integer letters in
{-r, ..., -1, 1, ..., r}, where -i denotes the inverse of generator i.
Everything downstream (coset tables, elevations, graphs of groups) builds on
the reduction and conjugacy routines here, so words are kept freely reduced
at all times: the ``Word`` constructor rejects unreduced input and
``free_reduce`` is the one place reduction happens.

Conjugacy classes are represented by a canonical word: the lexicographically
least rotation of the cyclically reduced core, with letters compared in the
integer order -r < ... < -1 < 1 < ... < r.  Inverse classes are *not*
identified: [w] and [w^-1] are distinct unless conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple


@dataclass(frozen=True)
class Word:
    """A freely reduced word in F_rank.

    >>> Word((1, 2, -1), 2).letters
    (1, 2, -1)
    >>> Word((1, -1), 2)
    Traceback (most recent call last):
        ...
    ValueError: word is not freely reduced at position 0
    """

    letters: Tuple[int, ...]
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        for i, a in enumerate(self.letters):
            if a == 0 or abs(a) > self.rank:
                raise ValueError("letter %d out of range for rank %d" % (a, self.rank))
            if i + 1 < len(self.letters) and self.letters[i + 1] == -a:
                raise ValueError("word is not freely reduced at position %d" % i)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return free_reduce(self.letters + other.letters, self.rank)

    def inverse(self) -> "Word":
        return Word(tuple(-a for a in reversed(self.letters)), self.rank)

    def power(self, n: int) -> "Word":
        if n < 0:
            return self.inverse().power(-n)
        return free_reduce(self.letters * n, self.rank)

    def is_identity(self) -> bool:
        return not self.letters


def identity(rank: int) -> Word:
    return Word((), rank)


def free_reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a letter sequence.

    >>> free_reduce([2, -1, 1, -2, 2], 2).letters
    (2,)
    """
    stack: list[int] = []
    for a in letters:
        if a == 0 or abs(a) > rank:
            raise ValueError("letter %d out of range for rank %d" % (a, rank))
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return Word(tuple(stack), rank)


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Split w as g * core * g^-1 with core cyclically reduced.

    Returns (core, conjugator).

    >>> core, g = cyclic_reduce(Word((1, 1, 2, -1, -1), 2))
    >>> core.letters, g.letters
    ((2,), (1, 1))
    """
    letters = list(w.letters)
    conj: list[int] = []
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        conj.append(letters[0])
        letters = letters[1:-1]
    return Word(tuple(letters), w.rank), Word(tuple(conj), w.rank)


def is_cyclically_reduced(w: Word) -> bool:
    return len(w) < 2 or w.letters[0] != -w.letters[-1]


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class, stored by its canonical representative.

    Build these with ``conj_canonical``; the constructor checks canonicity.
    """

    canonical: Word

    def __post_init__(self):
        w = self.canonical
        if not is_cyclically_reduced(w):
            raise ValueError("canonical representative must be cyclically reduced")
        if w.letters and w.letters != _least_rotation(w.letters):
            raise ValueError("representative is not the least rotation")

    @property
    def rank(self) -> int:
        return self.canonical.rank

    def is_trivial(self) -> bool:
        return self.canonical.is_identity()

    def inverse(self) -> "ConjClass":
        return conj_canonical(self.canonical.inverse())

    def __str__(self):
        return "[%s]" % ",".join(str(a) for a in self.canonical.letters)


def _least_rotation(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    # Integer comparison on letters is exactly the order -r < ... < -1 < 1 < ... < r.
    n = len(letters)
    return min(letters[i:] + letters[:i] for i in range(n))


def conj_canonical(w: Word) -> ConjClass:
    """Canonical form of the conjugacy class of w.

    >>> conj_canonical(Word((2, 1), 2)).canonical.letters
    (1, 2)
    >>> conj_canonical(Word((1, 2, -1), 2)).canonical.letters
    (2,)
    """
    core, _ = cyclic_reduce(w)
    if core.is_identity():
        return ConjClass(core)
    return ConjClass(Word(_least_rotation(core.letters), w.rank))


def power_of(w: Word, u: Word) -> Optional[int]:
    """Return m with w == u**m as group elements, or None.

    Used to decide membership in the cyclic subgroup <u>.  The exponent of a
    non-trivial power is bounded by len(w), since powers of a non-trivial
    word never shrink below one letter per factor.
    """
    if w.rank != u.rank:
        raise ValueError("rank mismatch")
    if w.is_identity():
        return 0
    if u.is_identity():
        return None
    bound = len(w)
    pos = identity(w.rank)
    neg = identity(w.rank)
    for m in range(1, bound + 1):
        pos = pos * u
        if pos.letters == w.letters:
            return m
        neg = neg * u.inverse()
        if neg.letters == w.letters:
            return -m
    return None


def abelianize_word(w: Word) -> Tuple[int, ...]:
    """Exponent-sum vector of w.

    >>> abelianize_word(Word((1, 2, -1, -2), 2))
    (0, 0)
    """
    v = [0] * w.rank
    for a in w.letters:
        if a > 0:
            v[a - 1] += 1
        else:
            v[-a - 1] -= 1
    return tuple(v)
