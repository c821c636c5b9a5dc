import enum
import itertools
import random
import re
import time
import tracemalloc

import pytest

from levispherical import (
    CapExceeded,
    WordLetterError,
    classical_group_order,
    classify,
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
    weyl,
)
from conftest import random_element, random_length_additive_pair, spec_of
from oracles import (
    chamber_walk,
    chamber_word,
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


def test_element_repr_names_type_and_rho_image():
    assert repr(from_word(spec_of("A2"), [1])) == "WeylElement(A2, (-1, 2))"


def test_enumeration_checks_its_count_against_the_formula(monkeypatch):
    spec = spec_of("A2")
    order = classical_group_order(spec)
    monkeypatch.setattr(weyl, "classical_group_order", lambda spec: order + 1)
    with pytest.raises(RuntimeError, match="found 6 elements, formula says 7"):
        list(enumerate_group(spec))


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


@pytest.mark.parametrize("bad", [0, 3, -1, True, 1.0])
def test_simple_reflection_rejects_bad_generators(bad):
    with pytest.raises(WordLetterError, match="generator index"):
        simple_reflection(spec_of("A2"), bad)


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


def test_over_cap_group_is_refused_before_any_element():
    # E7 has 2,903,040 elements, over the default cap: refused from its
    # order, not after enumerating the first 2,000,000.
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="over the cap"):
        next(enumerate_group(spec_of("E7")))
    assert time.perf_counter() - start < 1.0


def test_enumeration_holds_layers_compactly():
    # Each layer keeps its words as bytes; tuple words would peak at 5.7 MiB.
    spec = spec_of("E6")
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_group(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 51_840
    assert peak < 3 * 2**20


@pytest.mark.parametrize("type_str", ["A3", "B3", "G2", "D4", "F4"])
def test_enumeration_yields_tuples_of_ints(type_str):
    for w in enumerate_group(spec_of(type_str)):
        for part in (w.rho_image, w.word):
            assert type(part) is tuple
            assert set(map(type, part)) <= {int}


@pytest.mark.parametrize("type_str", ["A3", "B3", "G2", "D4", "F4"])
def test_enumeration_wraps_the_raw_stream(type_str):
    # enumerate_group is _elements with each packed int wrapped, in the same
    # order, and the word stripped from each element is the stream's word.
    spec = spec_of(type_str)
    raw = list(weyl._elements(spec, classical_group_order(spec)))
    unpack = weyl._layout(spec).unpack
    assert [(w.rho_image, w.word) for w in enumerate_group(spec)] == [
        (unpack(p), word) for p, word in raw
    ]
    assert len(raw) == classical_group_order(spec)


@pytest.mark.parametrize("type_str", ["A3", "A7", "B4", "C4", "D5"])
def test_packing_holds_where_the_coordinate_bound_fills_its_bits(type_str):
    # h - 1 = 2**k - 1 here, the largest bound k + 1 bits hold with room for
    # the sign bit, so a field one bit short, or a bias one too small,
    # wraps some coordinate.
    spec = spec_of(type_str)
    lay = weyl._layout(spec)
    assert lay.bias == lay.bound + 1
    raw = list(weyl._elements(spec, classical_group_order(spec)))
    rho = (1,) * spec.rank
    for p, word in raw:
        assert lay.unpack(p) == weyl.apply_word(spec, word, rho)
    packed = [p for p, _ in raw]
    assert sorted(packed) == sorted(packed, key=lay.unpack)
    # The census counts of these types are checked against the oracle by
    # test_census.py::test_full_descent_summary_matches_closed_forms.


@pytest.mark.parametrize(
    "type_str, width", [("E6", 30), ("E7", 42), ("E8", 48), ("B50", 400)]
)
def test_packed_width_follows_the_coxeter_number(type_str, width):
    spec = spec_of(type_str)
    lay = weyl._layout(spec)
    assert lay.bits * spec.rank == width
    assert lay.top.bit_length() == width
    # The weight (H, ..., H), the largest coordinates of any w(rho), packed.
    assert (lay.top + sum(lay.bound << s for s in lay.shifts)).bit_length() == width


@pytest.mark.parametrize("stream", [enumerate_group, weyl._elements])
@pytest.mark.parametrize("cap", [0, -1, True, 2.0])
def test_both_streams_refuse_a_bad_cap(stream, cap):
    with pytest.raises(ValueError, match="enumeration cap .* is not a positive integer"):
        next(stream(spec_of("B2"), cap))


@pytest.mark.parametrize("stream", [enumerate_group, weyl._elements])
def test_both_streams_refuse_an_over_cap_group_before_any_element(stream):
    b2 = spec_of("B2")
    elements = stream(b2, 7)
    with pytest.raises(CapExceeded, match="order 8, over the cap 7"):
        next(elements)
    assert len(list(stream(b2, 8))) == 8


@pytest.mark.parametrize("type_str", ["A3", "B3", "C3", "G2", "F4", "E6"])
def test_apply_word_matches_one_reflection_at_a_time(type_str, rng):
    # s_i(wt) = wt - wt_i alpha_i, alpha_i being row i of the Cartan matrix;
    # the word acts from its right end.
    spec = spec_of(type_str)

    def reference(word, wt):
        for i in reversed(word):
            k = wt[i - 1]
            wt = tuple(x - k * a for x, a in zip(wt, spec.cartan_matrix[i - 1]))
        return wt

    for _ in range(50):
        word = [rng.randint(1, spec.rank) for _ in range(rng.randint(0, 30))]
        wt = tuple(rng.randint(-4, 4) for _ in range(spec.rank))
        assert weyl.apply_word(spec, word, wt) == reference(word, wt)
        assert weyl.apply_word(spec, iter(word), wt) == reference(word, wt)


@pytest.mark.parametrize("type_str", ["B3", "D4", "F4", "E6"])
def test_packed_element_paths_match_the_list_walk(type_str):
    # Every element of B3, D4 and F4 and a seeded sample of E6, against
    # apply_word and the list walk, which act on w(rho) as a tuple.
    spec = spec_of(type_str)
    elements = list(enumerate_group(spec))
    if len(elements) > 2000:
        elements = random.Random(6).sample(elements, 2000)
    rho = (1,) * spec.rank
    for w, v in zip(elements, elements[1:] + elements[:1]):
        bare = weyl._element(spec, w.packed)
        assert bare == w and bare.rho_image == w.rho_image
        assert bare.word == chamber_word(spec, w.rho_image) == w.word
        negative = {i for i, c in enumerate(w.rho_image, 1) if c < 0}
        assert left_descents(spec, bare) == negative
        assert from_word(spec, w.word) == w
        uv = multiply(spec, w, v)
        assert uv.rho_image == weyl.apply_word(spec, w.word, v.rho_image)
        assert inverse(spec, bare).rho_image == weyl.apply_word(spec, w.word[::-1], rho)


def test_an_element_has_no_public_constructor():
    # A raw int outside the orbit of rho would strip to a word that is not
    # its own (0 on A1 never ends its walk), and a word given beside the int
    # would be trusted unchecked.  Elements come from words and the stream.
    a1, a2 = spec_of("A1"), spec_of("A2")
    for args, kwargs in [
        ((a1, 0), {}),
        ((), {"spec": a1, "packed": 0}),
        ((a2, from_word(a2, [1]).packed, (2,)), {}),
    ]:
        with pytest.raises(TypeError):
            weyl.WeylElement(*args, **kwargs)


@pytest.mark.parametrize("type_str", ["E6", "E7", "E8"])
def test_longest_parabolic_matches_the_list_walk_of_minus_rho(type_str):
    # The walk of -rho over I spells w_0(I) and ends at -w_0(I)(rho).
    spec = spec_of(type_str)
    nodes = range(1, spec.rank + 1)
    for size in range(spec.rank + 1):
        for subset in itertools.combinations(nodes, size):
            out = [-1] * spec.rank
            word = chamber_walk(spec, out, [i in subset for i in nodes])
            w0 = longest_parabolic(spec, subset)
            assert w0.word == tuple(word)
            assert weyl._w0(weyl._layout(spec), subset)[0] == len(word)
            assert w0.rho_image == tuple(-x for x in out)


def test_w0_memo_is_bounded():
    # One element classified over more subsets than the memo of w_0(I) holds:
    # the memo evicts, and never grows past its bound.
    spec = spec_of("A12")
    nodes = range(1, spec.rank + 1)
    w0 = longest_parabolic(spec, nodes)
    maxsize = weyl._w0.cache_info().maxsize
    assert maxsize is not None
    subsets = itertools.islice(
        itertools.chain.from_iterable(
            itertools.combinations(nodes, k) for k in range(spec.rank + 1)
        ),
        maxsize + 100,
    )
    weyl._w0.cache_clear()
    for subset in subsets:
        res = classify(spec, w0, subset)
        assert res.len_w0I + res.len_d == res.len_w == 78
    info = weyl._w0.cache_info()
    assert info.misses == maxsize + 100
    assert info.currsize == maxsize
