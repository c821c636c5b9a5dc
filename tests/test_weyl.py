import enum
import itertools
import re

import pytest

from levispherical import (
    CapExceeded,
    WordLetterError,
    classical_group_order,
    enumerate_group,
    from_word,
    identity,
    inverse,
    is_standard_coxeter,
    left_descents,
    length,
    longest_parabolic,
    multiply,
    reduced_word,
    simple_reflection,
    support,
)
from conftest import random_element, random_length_additive_pair, spec_of
from oracles import (
    group_order,
    left_inversions,
    phi_plus_of_subset,
    positive_root_set,
    rows,
    sym_eval_word,
    sym_left_descents,
    sym_length,
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]


def all_elements(type_str):
    return list(enumerate_group(spec_of(type_str)))


def test_from_word_basics():
    a2 = spec_of("A2")
    e = from_word(a2, [])
    assert e == identity(a2)
    s1 = simple_reflection(a2, 1)
    assert from_word(a2, [1]) == s1
    assert multiply(a2, s1, s1) == e
    assert from_word(a2, [1, 2, 1]) == from_word(a2, [2, 1, 2])


def test_from_word_rejects_bad_letters():
    a2 = spec_of("A2")
    with pytest.raises(WordLetterError, match="position 3"):
        from_word(a2, [1, 2, 5])
    with pytest.raises(WordLetterError, match="position 1"):
        from_word(a2, [0, 1])


@pytest.mark.parametrize("bad", ["zero", "rank+1", True, 1.0, "1", None])
@pytest.mark.parametrize("pos", [1, 2, 117, 200])
def test_from_word_names_the_bad_letter_of_a_long_word(bad, pos):
    spec = spec_of("D4")
    bad = {"zero": 0, "rank+1": spec.rank + 1}.get(bad, bad)
    word = [1 + k % spec.rank for k in range(200)]
    word[pos - 1] = bad
    message = re.escape(f"letter {bad!r} at position {pos} ")
    with pytest.raises(WordLetterError, match=message):
        from_word(spec, word)


def test_from_word_accepts_int_subclass_letters():
    class Node(enum.IntEnum):
        ONE = 1
        TWO = 2

    a2 = spec_of("A2")
    word = [Node.ONE, Node.TWO, 1] * 50
    assert from_word(a2, word) == from_word(a2, [int(i) for i in word])


def test_matrix_columns_are_root_images(rng):
    # Every w permutes the roots up to sign: column images lie in +-Phi^+.
    for type_str in ("B3", "D4", "G2"):
        spec = spec_of(type_str)
        n = spec.rank
        roots = positive_root_set(spec)
        for _ in range(25):
            w = random_element(spec, rng)
            matrix = rows(w)
            for alpha in spec.positive_roots:
                img = tuple(
                    sum(matrix[r][k] * alpha[k] for k in range(n))
                    for r in range(n)
                )
                assert img in roots or tuple(-c for c in img) in roots


def test_golden_word_lengths():
    e8 = spec_of("E8")
    w = from_word(e8, [2, 3, 4, 2, 3, 4, 5, 4, 2, 3, 1, 4, 5, 6, 7, 6, 8, 7, 6])
    assert length(e8, w) == 19
    assert sorted(left_descents(e8, w)) == [2, 3, 4, 5, 7, 8]
    f4 = spec_of("F4")
    assert length(f4, from_word(f4, [4, 3, 4, 2, 3, 4, 2, 3, 2, 1, 2, 3, 4])) == 13
    assert length(f4, from_word(f4, [2, 1, 4, 3, 2, 1, 3, 2, 4, 3, 2, 1])) == 12
    d4 = spec_of("D4")
    assert length(d4, from_word(d4, [3, 2, 3, 4, 2, 1, 2])) == 7


@pytest.mark.parametrize("type_str", ["A1", "A2", "A3", "B2", "B3", "G2"])
def test_length_equals_inversion_count_everywhere(type_str):
    spec = spec_of(type_str)
    for w in all_elements(type_str):
        word = reduced_word(spec, w)
        assert from_word(spec, word) == w
        assert len(word) == length(spec, w) == len(left_inversions(spec, w))


@pytest.mark.parametrize("type_str", ["A2", "A3", "B2", "G2"])
def test_left_descents_match_definition(type_str):
    spec = spec_of(type_str)
    for w in all_elements(type_str):
        lw = length(spec, w)
        by_def = {
            i
            for i in range(1, spec.rank + 1)
            if length(spec, multiply(spec, simple_reflection(spec, i), w)) < lw
        }
        assert left_descents(spec, w) == by_def


def test_type_a_against_symmetric_group(rng):
    # Same generators, so lengths and descent sets must agree with the
    # symmetric-group model computed from one-line notation.
    n = 3
    spec = spec_of("A3")
    for _ in range(50):
        w = random_element(spec, rng)
        word = reduced_word(spec, w)
        p = sym_eval_word(n, word)
        assert sym_length(p) == length(spec, w)
        assert sym_left_descents(n, p) == set(left_descents(spec, w))


def test_reduced_word_is_canonical(rng):
    # The first letter is always the smallest left descent.
    spec = spec_of("D4")
    for _ in range(50):
        w = random_element(spec, rng)
        word = reduced_word(spec, w)
        if word:
            assert word[0] == min(left_descents(spec, w))


def test_support_is_strategy_independent(rng):
    # Stripping the largest descent instead must give the same letter set.
    for type_str in ("B3", "D4"):
        spec = spec_of(type_str)
        for _ in range(40):
            w = random_element(spec, rng)
            letters = set()
            v = w
            while length(spec, v) > 0:
                i = max(left_descents(spec, v))
                letters.add(i)
                v = multiply(spec, simple_reflection(spec, i), v)
            assert letters == set(support(spec, w))


def test_inverse_and_products(rng):
    for type_str in ("A3", "B3", "F4"):
        spec = spec_of(type_str)
        e = identity(spec)
        for _ in range(25):
            u = random_element(spec, rng)
            v = random_element(spec, rng)
            assert multiply(spec, u, inverse(spec, u)) == e
            assert multiply(spec, inverse(spec, u), u) == e
            assert inverse(spec, multiply(spec, u, v)) == multiply(
                spec, inverse(spec, v), inverse(spec, u)
            )
            assert length(spec, inverse(spec, u)) == length(spec, u)
            rev = list(reversed(reduced_word(spec, u)))
            assert from_word(spec, rev) == inverse(spec, u)


def test_splitting_identity(rng):
    # I(uv) = I(u) disjoint-union u(I(v)) when lengths add.
    for type_str in ("B3", "D4"):
        spec = spec_of(type_str)
        n = spec.rank
        for _ in range(60):
            u, v = random_length_additive_pair(spec, rng)
            uv = multiply(spec, u, v)
            assert length(spec, uv) == length(spec, u) + length(spec, v)
            iu = left_inversions(spec, u)
            iv = left_inversions(spec, v)
            matrix = rows(u)
            mapped = set()
            for alpha in iv:
                img = tuple(
                    sum(matrix[r][k] * alpha[k] for k in range(n))
                    for r in range(n)
                )
                mapped.add(img)
            assert iu.isdisjoint(mapped)
            assert iu | mapped == left_inversions(spec, uv)


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_longest_parabolic_inversions(type_str):
    # I(w_0(I)) = Phi^+(I) for every subset I, and w_0(I) is an involution.
    spec = spec_of(type_str)
    e = identity(spec)
    for k in range(spec.rank + 1):
        for subset in itertools.combinations(range(1, spec.rank + 1), k):
            w0i = longest_parabolic(spec, subset)
            assert left_inversions(spec, w0i) == phi_plus_of_subset(spec, subset)
            assert multiply(spec, w0i, w0i) == e
            assert set(subset) <= left_descents(spec, w0i) | set()
            assert set(support(spec, w0i)) == set(subset)


def test_longest_parabolic_golden_words():
    f4 = spec_of("F4")
    assert longest_parabolic(f4, [2, 3, 4]) == from_word(
        f4, [2, 3, 2, 3, 4, 3, 2, 3, 4]
    )
    assert length(f4, longest_parabolic(f4, [2, 3, 4])) == 9
    assert longest_parabolic(f4, [2, 4]) == from_word(f4, [2, 4])
    d4 = spec_of("D4")
    assert longest_parabolic(d4, [2, 3]) == from_word(d4, [2, 3, 2])
    e8 = spec_of("E8")
    w0i = longest_parabolic(e8, [2, 3, 4, 5, 7, 8])
    assert length(e8, w0i) == 15  # D4 x A2 parabolic: 12 + 3


def test_is_standard_coxeter():
    a2 = spec_of("A2")
    assert is_standard_coxeter(a2, identity(a2))
    assert is_standard_coxeter(a2, from_word(a2, [1]))
    assert is_standard_coxeter(a2, from_word(a2, [1, 2]))
    assert is_standard_coxeter(a2, from_word(a2, [2, 1]))
    assert not is_standard_coxeter(a2, from_word(a2, [1, 2, 1]))
    g2 = spec_of("G2")
    assert not is_standard_coxeter(g2, from_word(g2, [1, 2, 1]))
    assert is_standard_coxeter(g2, from_word(g2, [2, 1]))


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_enumeration_order_and_count(type_str):
    spec = spec_of(type_str)
    ct = spec.cartan_type
    seen = set()
    last_len = 0
    count = 0
    for w in enumerate_group(spec):
        lw = length(spec, w)
        assert lw >= last_len
        last_len = lw
        assert w not in seen
        seen.add(w)
        count += 1
    assert count == group_order(ct.family, ct.rank) == classical_group_order(spec)


def test_enumeration_is_deterministic():
    spec = spec_of("B3")
    first = [rows(w) for w in enumerate_group(spec)]
    second = [rows(w) for w in enumerate_group(spec)]
    assert first == second


def test_enumeration_cap():
    spec = spec_of("A2")
    assert len(list(enumerate_group(spec, cap=6))) == 6
    with pytest.raises(CapExceeded):
        list(enumerate_group(spec, cap=5))
