import itertools

import pytest

from levispherical import (
    LengthAdditivityError,
    LeviNotInDescents,
    classify,
    classify_toric,
    enumerate_group,
    from_word,
    identity,
    left_descents,
    length,
    longest_parabolic,
    multiply,
    simple_reflection,
    weyl,
)
from levispherical.sphericality import _split
from conftest import spec_of
from oracles import left_inversions


def brute_standard_coxeter_set(spec):
    # Every product of pairwise distinct simple reflections, any order,
    # any subset.  Built from raw matrix products only.
    out = set()
    nodes = range(1, spec.rank + 1)
    for k in range(spec.rank + 1):
        for subset in itertools.combinations(nodes, k):
            for order in itertools.permutations(subset):
                w = identity(spec)
                for i in order:
                    w = multiply(spec, w, simple_reflection(spec, i))
                out.add(w)
    return out


def support_by_max_descent(spec, w):
    letters = set()
    while length(spec, w) > 0:
        i = max(left_descents(spec, w))
        letters.add(i)
        w = multiply(spec, simple_reflection(spec, i), w)
    return letters


def test_golden_e8():
    spec = spec_of("E8")
    w = from_word(spec, [2, 3, 4, 2, 3, 4, 5, 4, 2, 3, 1, 4, 5, 6, 7, 6, 8, 7, 6])
    res = classify(spec, w, [2, 3, 4, 5, 7, 8])
    assert res.spherical
    assert res.len_w == 19
    assert res.len_w0I == 15
    assert res.len_d == 4
    assert res.d_word == (1, 6, 7, 8)
    assert res.support_d == (1, 6, 7, 8)
    assert res.levi == (2, 3, 4, 5, 7, 8)


def test_golden_f4_spherical():
    spec = spec_of("F4")
    w = from_word(spec, [4, 3, 4, 2, 3, 4, 2, 3, 2, 1, 2, 3, 4])
    res = classify(spec, w, [2, 3, 4])
    assert res.spherical
    assert res.len_w == 13
    assert res.len_w0I == 9
    assert res.len_d == 4
    assert res.d_word == (1, 2, 3, 4)


def test_golden_f4_not_spherical():
    spec = spec_of("F4")
    w = from_word(spec, [2, 1, 4, 3, 2, 1, 3, 2, 4, 3, 2, 1])
    res = classify(spec, w, [2, 4])
    assert not res.spherical
    assert res.len_d == 10
    assert from_word(spec, res.d_word) == from_word(
        spec, [1, 3, 2, 1, 3, 2, 4, 3, 2, 1]
    )
    assert res.support_d == (1, 2, 3, 4)
    assert res.len_w == res.len_w0I + res.len_d == 12


def test_golden_d4_not_spherical():
    spec = spec_of("D4")
    w = from_word(spec, [3, 2, 3, 4, 2, 1, 2])
    res = classify(spec, w, [2, 3])
    assert not res.spherical
    assert res.len_d == 4
    assert from_word(spec, res.d_word) == from_word(spec, [4, 2, 1, 2])
    assert res.support_d == (1, 2, 4)


def test_levi_outside_descents_is_an_error():
    spec = spec_of("F4")
    w = from_word(spec, [4, 3, 4, 2, 3, 4, 2, 3, 2, 1, 2, 3, 4])
    assert sorted(left_descents(spec, w)) == [2, 3, 4]
    with pytest.raises(LeviNotInDescents) as exc:
        classify(spec, w, [1, 2])
    assert exc.value.offending == (1,)
    assert exc.value.descents == (2, 3, 4)
    # An error, not a verdict: identity has no descents at all.
    with pytest.raises(LeviNotInDescents):
        classify(spec, identity(spec), [1])


def test_levi_subset_validation():
    spec = spec_of("A2")
    w = from_word(spec, [1, 2, 1])
    with pytest.raises(ValueError):
        classify(spec, w, [0])
    with pytest.raises(ValueError):
        classify(spec, w, [3])
    # Repeated indices name the same subset, no error.
    assert classify(spec, w, [1, 1]) == classify(spec, w, [1])


def test_classify_toric_a2():
    spec = spec_of("A2")
    verdicts = {w: classify_toric(spec, w) for w in enumerate_group(spec)}
    assert sum(verdicts.values()) == 5
    w0 = from_word(spec, [1, 2, 1])
    assert not verdicts[w0]
    for w, ok in verdicts.items():
        assert ok == classify(spec, w, []).spherical


def test_classify_result_json_key_order():
    spec = spec_of("A2")
    res = classify(spec, from_word(spec, [1, 2]), [1])
    assert list(res.to_json_dict()) == [
        "type",
        "w_word",
        "levi",
        "d_word",
        "support_d",
        "len_w",
        "len_w0I",
        "len_d",
        "spherical",
    ]
    assert res.to_json_dict()["type"] == "A2"


@pytest.mark.parametrize("type_str", ["A2", "B2", "A3", "B3", "D4"])
def test_agreement_with_brute_force(type_str):
    # The verdict must match raw membership in the set of all products of
    # distinct simple reflections, with d recomputed as a matrix product.
    spec = spec_of(type_str)
    standard = brute_standard_coxeter_set(spec)
    checked = 0
    for w in enumerate_group(spec):
        descents = sorted(left_descents(spec, w))
        for k in range(len(descents) + 1):
            for subset in itertools.combinations(descents, k):
                res = classify(spec, w, subset)
                d = from_word(spec, res.d_word)
                assert res.spherical == (d in standard)
                checked += 1
    assert checked > len(list(enumerate_group(spec)))


@pytest.mark.parametrize("type_str", ["A3", "B3", "C3", "D4", "F4"])
def test_direct_definition_and_no_internal_errors(type_str):
    # classify must never trip its length-additivity invariant when the
    # hypothesis I within D_L(w) holds, and the verdict must equal the
    # inversion-count form of the definition.
    spec = spec_of(type_str)
    for w in enumerate_group(spec):
        descents = sorted(left_descents(spec, w))
        for k in range(len(descents) + 1):
            for subset in itertools.combinations(descents, k):
                res = classify(spec, w, subset)
                d = from_word(spec, res.d_word)
                assert res.len_d == len(left_inversions(spec, d))
                assert res.spherical == (
                    res.len_d == len(support_by_max_descent(spec, d))
                )


def test_empty_levi_specialization():
    # classify(w, {}) reduces to: w itself is a standard Coxeter element.
    for type_str in ("A3", "B3"):
        spec = spec_of(type_str)
        for w in enumerate_group(spec):
            res = classify(spec, w, [])
            assert res.len_w0I == 0
            assert res.d_word == res.w_word
            assert res.spherical == (res.len_w == len(res.support_d))
            assert res.spherical == classify_toric(spec, w)


def test_a2_exhaustive_ground_truth():
    spec = spec_of("A2")
    non_spherical = []
    pairs = 0
    for w in enumerate_group(spec):
        descents = sorted(left_descents(spec, w))
        for k in range(len(descents) + 1):
            for subset in itertools.combinations(descents, k):
                pairs += 1
                if not classify(spec, w, subset).spherical:
                    non_spherical.append((w, subset))
    assert pairs == 13
    assert len(non_spherical) == 1
    w, subset = non_spherical[0]
    assert w == from_word(spec, [1, 2, 1])
    assert subset == ()


def test_split_refuses_a_missing_tail():
    # A census table without the element where the walk of d stops is an
    # internal fault, raised as such: never a shorter word for d.
    spec = spec_of("A3")
    lay = weyl._layout(spec)
    w = from_word(spec, [3, 1, 2])
    packed = w.packed
    head = lay.mask([1])
    with pytest.raises(RuntimeError, match="no tail word for"):
        _split(lay, packed, w.word, (), (0, ()), head, {})
    tails = {from_word(spec, [3, 2]).packed: ((3, 2), "3, 2")}
    assert _split(lay, packed, w.word, (), (0, ()), head, tails) == (
        (1,),
        ((3, 2), "3, 2"),
    )


def test_split_refuses_a_word_too_long_for_w():
    spec = spec_of("A3")
    lay = weyl._layout(spec)
    w = from_word(spec, [1])
    rho = {lay.rho: ((), "")}
    w0i = weyl._w0(lay, (1,))
    with pytest.raises(LengthAdditivityError, match=r"length\(\(1, 2, 2\)\) = 3"):
        _split(lay, w.packed, w.word + (2, 2), (1,), w0i, lay.top, rho)


@pytest.mark.parametrize("type_str", ["A50", "B50", "D50", "E8"])
def test_longest_element_over_its_descents_leaves_the_identity(type_str):
    # The widest packings: B50 holds w(rho) in a 400-bit int.
    spec = spec_of(type_str)
    nodes = range(1, spec.rank + 1)
    w0 = from_word(spec, longest_parabolic(spec, nodes).word)
    res = classify(spec, w0, nodes)
    n = len(spec.positive_roots)
    assert (res.d_word, res.spherical, res.len_w0I, res.len_w) == ((), True, n, n)
