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

from typing import Iterable, Optional, Tuple

# Fields of the immutable value classes are set once, in ``__init__``.
_set = object.__setattr__


class Value:
    """Base of the package's value classes.

    Each subclass names its fields once, in ``FIELDS``, in constructor
    order.  From it the base derives the repr ``Name(field=value, ...)``
    and equality: instances of one class compare their field tuples, any
    other class gets NotImplemented.  Defining ``__eq__`` makes a
    ``Value`` unhashable; ``Frozen`` adds the hash.
    """

    __slots__ = ()
    FIELDS: Tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.FIELDS))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented


class Frozen(Value):
    """Base of the package's immutable value classes.

    Each subclass sets its fields in ``__init__`` through ``_set``; its
    hash is that of the tuple of its fields in order.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __setstate__(self, state):
        # pickle and copy restore fields here, as __setattr__ refuses them;
        # state is the instance dict, or (None, slot values) without one.
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                _set(self, name, value)


def check_int(value, name: str) -> None:
    """Reject a bool where an int is required: bool subclasses int, so
    True would otherwise pass every range check as 1."""
    if value.__class__ is bool:
        raise TypeError("%s: expected int, got bool" % name)


class Word(Frozen):
    """A freely reduced word in F_rank.  Its hash is computed once: words
    key the memoised searches of the cosets and covers layers.

    >>> Word((1, 2, -1), 2).letters
    (1, 2, -1)
    >>> Word((1, -1), 2)
    Traceback (most recent call last):
        ...
    ValueError: word is not freely reduced at position 0
    """

    FIELDS = ("letters", "rank")
    __slots__ = FIELDS + ("_hash",)

    def __init__(self, letters: Tuple[int, ...], rank: int):
        check_int(rank, "rank")
        if rank < 0:
            raise ValueError("rank must be non-negative")
        for i, a in enumerate(letters):
            check_int(a, "letters")
            if a == 0 or abs(a) > rank:
                raise ValueError("letter %d out of range for rank %d" % (a, rank))
            if i + 1 < len(letters) and letters[i + 1] == -a:
                raise ValueError("word is not freely reduced at position %d" % i)
        _set(self, "letters", letters)
        _set(self, "rank", rank)
        _set(self, "_hash", hash((letters, rank)))

    def __hash__(self):
        return self._hash

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


class ConjClass(Frozen):
    """A conjugacy class, stored by its canonical representative.

    Build these with ``conj_canonical``; the constructor checks canonicity.
    """

    FIELDS = ("canonical",)
    __slots__ = FIELDS

    def __init__(self, canonical: Word):
        if not is_cyclically_reduced(canonical):
            raise ValueError("canonical representative must be cyclically reduced")
        if canonical.letters and canonical.letters != _least_rotation(canonical.letters):
            raise ValueError("representative is not the least rotation")
        _set(self, "canonical", canonical)

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
