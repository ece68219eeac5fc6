import itertools

import pytest
from _helpers import primitive_root
from hypothesis import given, strategies as st

from gfgcover.words import (
    ConjClass,
    Word,
    abelianize_word,
    conj_canonical,
    cyclic_reduce,
    free_reduce,
    identity,
    is_cyclically_reduced,
    power_of,
)


def naive_reduce(letters, rank):
    # Oracle: rescan for adjacent cancelling pairs until none remain.
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def naive_cyclic_core(letters, rank):
    # Oracle: freely reduce, then repeatedly strip matching first/last letters.
    out = list(naive_reduce(letters, rank))
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def all_letter_tuples(rank, length):
    alphabet = [a for a in range(-rank, rank + 1) if a != 0]
    return itertools.product(alphabet, repeat=length)


letters_strategy = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda a: a != 0), max_size=12
)


def test_free_reduce_frozen_example():
    assert free_reduce([2, -1, 1, -2, 2], 2).letters == (2,)


def test_free_reduce_rejects_out_of_range():
    with pytest.raises(ValueError):
        free_reduce([1, 3], 2)
    with pytest.raises(ValueError):
        free_reduce([0], 2)


def test_word_constructor_requires_reduced():
    with pytest.raises(ValueError):
        Word((1, 2, -2), 2)


@given(letters_strategy)
def test_free_reduce_matches_naive_oracle(letters):
    assert free_reduce(letters, 3).letters == naive_reduce(letters, 3)


@given(letters_strategy)
def test_free_reduce_idempotent(letters):
    w = free_reduce(letters, 3)
    assert free_reduce(w.letters, 3) == w


def test_cyclic_reduce_frozen_example():
    core, conj = cyclic_reduce(Word((1, 1, 2, -1, -1), 2))
    assert core.letters == (2,)
    assert conj.letters == (1, 1)


@given(letters_strategy)
def test_cyclic_reduce_against_strip_oracle(letters):
    w = free_reduce(letters, 3)
    core, conj = cyclic_reduce(w)
    assert core.letters == naive_cyclic_core(letters, 3)
    assert is_cyclically_reduced(core)
    # w = conj * core * conj^-1
    assert conj * core * conj.inverse() == w


def test_conj_canonical_frozen_examples():
    assert conj_canonical(Word((2, 1), 2)).canonical.letters == (1, 2)
    assert conj_canonical(Word((1, 2, -1), 2)).canonical.letters == (2,)
    # inverse classes are not identified
    assert conj_canonical(Word((1, 2), 2)) != conj_canonical(Word((-2, -1), 2))


def test_conj_canonical_rotation_invariance_exhaustive():
    # Exhaustive check: every rotation of the cyclically reduced core lands
    # in the same class, for all words of length <= 4 over rank 3 and <= 6
    # over rank 2 (the split keeps the run fast).
    for rank, maxlen in ((3, 4), (2, 6)):
        for length in range(maxlen + 1):
            alphabet = [a for a in range(-rank, rank + 1) if a != 0]
            for letters in itertools.product(alphabet, repeat=length):
                w = free_reduce(letters, rank)
                c = conj_canonical(w)
                core, _ = cyclic_reduce(w)
                n = len(core.letters)
                for i in range(n):
                    rot = core.letters[i:] + core.letters[:i]
                    assert conj_canonical(Word(rot, rank)) == c


@given(letters_strategy, letters_strategy)
def test_conj_canonical_conjugation_invariance(letters, gletters):
    w = free_reduce(letters, 3)
    g = free_reduce(gletters, 3)
    assert conj_canonical(g * w * g.inverse()) == conj_canonical(w)


def test_conj_class_constructor_checks_canonicity():
    with pytest.raises(ValueError):
        ConjClass(Word((2, 1), 2))
    with pytest.raises(ValueError):
        ConjClass(Word((1, 2, -1), 2))


def test_primitive_root_frozen_examples():
    root, n = primitive_root(Word((1, 2, 1, 2), 2))
    assert (root.letters, n) == ((1, 2), 2)
    root, n = primitive_root(Word((1, 1, 2), 2))
    assert (root.letters, n) == ((1, 1, 2), 1)
    # conjugates of powers
    root, n = primitive_root(Word((2, 1, 1, -2), 2))
    assert (root.letters, n) == ((1,), 2)


def test_primitive_root_rejects_trivial():
    with pytest.raises(ValueError):
        primitive_root(identity(2))


def test_primitive_root_exhaustive_small():
    # Oracle: exponent is maximal among all (root, k) with root^k conjugate
    # to w; checked by brute force over candidate periods.
    for length in range(1, 7):
        for letters in all_letter_tuples(2, length):
            w = free_reduce(letters, 2)
            if w.is_identity():
                continue
            root, n = primitive_root(w)
            assert conj_canonical(root.power(n)) == conj_canonical(w)
            core, _ = cyclic_reduce(w)
            divisors = [k for k in range(1, len(core) + 1) if len(core) % k == 0]
            best = max(
                len(core) // d
                for d in divisors
                if core.letters == core.letters[:d] * (len(core) // d)
            )
            assert n == best
            assert primitive_root(root)[1] == 1


def test_power_of():
    u = Word((1, 2), 2)
    assert power_of(u * u * u, u) == 3
    assert power_of(u.inverse() * u.inverse(), u) == -2
    assert power_of(identity(2), u) == 0
    assert power_of(Word((1,), 2), u) is None
    # conjugated powers are not in <u> unless the conjugator commutes
    g = Word((2,), 2)
    assert power_of(g * u * g.inverse(), u) is None


def test_abelianize_word():
    assert abelianize_word(Word((1, 2, -1, -2), 2)) == (0, 0)
    assert abelianize_word(Word((1, 1, 2), 3)) == (2, 1, 0)


@given(letters_strategy, st.integers(min_value=-5, max_value=5))
def test_power_matches_repeated_multiplication(letters, n):
    w = free_reduce(letters, 3)
    step = w if n >= 0 else w.inverse()
    want = identity(3)
    for _ in range(abs(n)):
        want = want * step
    assert w.power(n) == want
