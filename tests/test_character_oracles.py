"""Demazure characters against oracles that share no code with the kernel.

Kohnert's rule gives every character in type A; the subword property gives
the extremal weights {x(lam) : x <= w} in every type, and the whole
character when lam is minuscule.  The packed kernel is also checked where
its fields are widest: coordinates up to 10**6 and near 2**40.
"""

import random
from collections import Counter

import pytest

from levispherical import (
    WeightPoly,
    decompose_levi,
    demazure_char,
    demazure_op,
    enumerate_group,
    levi_irreducible_char,
    longest_parabolic,
    multiply,
    weyl,
)
from levispherical import characters
from conftest import random_element, spec_of
from oracles import (
    bruhat_orbit,
    chamber_walk,
    demazure_step,
    dot_straighten,
    kohnert_char,
)


def dominant_conjugate(spec, wt):
    out = list(wt)
    chamber_walk(spec, out, (True,) * spec.rank)
    return tuple(out)


def extremal_part(spec, lam, char):
    """The terms of a character whose weights lie in the orbit of lam."""
    return {wt: c for wt, c in char.items() if dominant_conjugate(spec, wt) == lam}


@pytest.mark.parametrize(
    "type_str, lams",
    [
        ("A3", [(1, 1, 1), (1, 0, 0), (0, 1, 0), (2, 0, 1), (0, 0, 3)]),
        ("A4", [(1, 1, 1, 1), (0, 1, 0, 0), (1, 0, 0, 1), (0, 2, 0, 1)]),
    ],
)
def test_kohnert_rule_gives_every_type_a_character(type_str, lams):
    spec = spec_of(type_str)
    for w in enumerate_group(spec):
        for lam in lams:
            assert demazure_char(spec, lam, w).as_dict() == kohnert_char(lam, w.word)


@pytest.mark.parametrize("type_str", ["B3", "G2"])
def test_extremal_weights_are_the_bruhat_orbit(type_str):
    spec = spec_of(type_str)
    rho = (1,) * spec.rank
    for w in enumerate_group(spec):
        char = demazure_char(spec, rho, w)
        orbit = bruhat_orbit(spec.cartan_matrix, rho, w.word)
        assert extremal_part(spec, rho, char) == dict.fromkeys(orbit, 1)


def test_extremal_weights_of_long_f4_elements():
    # w0 x for a short x is long, and its interval below is most of the group.
    spec = spec_of("F4")
    rng = random.Random(25)
    rho = (1, 1, 1, 1)
    w0 = longest_parabolic(spec, range(1, 5))
    sample = [random_element(spec, rng) for _ in range(6)]
    sample += [
        multiply(spec, w0, random_element(spec, rng, max_len=4)) for _ in range(6)
    ]
    assert max(len(w.word) for w in sample) >= 20
    for w in sample:
        char = demazure_char(spec, rho, w)
        orbit = bruhat_orbit(spec.cartan_matrix, rho, w.word)
        assert extremal_part(spec, rho, char) == dict.fromkeys(orbit, 1)


@pytest.mark.parametrize(
    "type_str, lam",
    [
        ("E6", (1, 0, 0, 0, 0, 0)),
        ("E6", (0, 0, 0, 0, 0, 1)),
        ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ],
)
def test_minuscule_characters_are_the_bruhat_orbit(type_str, lam):
    # Every weight of a minuscule module lies in W(lam), with multiplicity 1.
    spec = spec_of(type_str)
    rng = random.Random(type_str + str(lam))
    w0 = longest_parabolic(spec, range(1, spec.rank + 1))
    sample = [random_element(spec, rng) for _ in range(20)]
    sample += [
        multiply(spec, w0, random_element(spec, rng, max_len=5)) for _ in range(5)
    ]
    for w in sample:
        orbit = bruhat_orbit(spec.cartan_matrix, lam, w.word)
        assert demazure_char(spec, lam, w).as_dict() == dict.fromkeys(orbit, 1)


@pytest.mark.parametrize("type_str", ["A2", "B3", "G2", "D4"])
def test_characters_stay_inside_the_bound_lemma(type_str):
    # Every weight of a Demazure module of lam lies in the hull of W(lam), so
    # no coordinate passes (h - 1) max(lam).
    spec = spec_of(type_str)
    lam = (2,) + (1,) * (spec.rank - 1)
    bound = (spec.coxeter_number - 1) * max(lam)
    for w in enumerate_group(spec):
        char = demazure_char(spec, lam, w)
        assert max(abs(x) for wt in char.weights() for x in wt) <= bound


@pytest.mark.parametrize("type_str", ["G2", "B2"])
def test_demazure_op_at_wide_non_dominant_coordinates(type_str, rng):
    # Coordinate i in -6..3 takes every branch of pi_i, the k <= -2 one
    # above all; the other coordinate reaches 10**6, so a packed field
    # holds some 23 bits.
    spec = spec_of(type_str)
    for i in (1, 2):
        for _ in range(25):
            terms = Counter()
            for _ in range(rng.randint(1, 6)):
                mu = [rng.choice([-1, 1]) * rng.randint(10**6 - 50, 10**6)] * 2
                mu[i - 1] = rng.randint(-6, 3)
                terms[tuple(mu)] += rng.choice([-2, -1, 1, 3])
            want, _ = demazure_step(spec.cartan_matrix, i, terms)
            assert demazure_op(spec, WeightPoly(terms), i).as_dict() == want


@pytest.mark.parametrize(
    "type_str, levi, smaller, mus",
    [
        ("B3", (2, 3), (3,), [(2**40, 1, 2), (2**40 - 3, 0, 1), (-(2**40), 2, 0)]),
        ("G2", (1,), (), [(3, 2**40), (1, -(2**40) + 7)]),
    ],
)
def test_decompose_levi_near_2_to_the_40(type_str, levi, smaller, mus):
    spec = spec_of(type_str)
    f = Counter()
    for m, mu in enumerate(mus, 1):
        for wt, c in levi_irreducible_char(spec, mu, levi).items():
            f[wt] += m * c
    f = WeightPoly(f)
    want = sorted((mu, m) for m, mu in enumerate(mus, 1))
    assert sorted(decompose_levi(spec, f, levi)) == want
    # Over a smaller Levi the terms off its chamber are straightened by
    # walks; the entries are the oracle's and rebuild f.
    entries = decompose_levi(spec, f, smaller)
    oracle = dot_straighten(spec.cartan_matrix, f.as_dict(), smaller)
    assert dict(entries) == {nu: m for nu, m in oracle.items() if m}
    rebuilt = Counter()
    for mu, m in entries:
        for wt, c in levi_irreducible_char(spec, mu, smaller).items():
            rebuilt[wt] += m * c
    assert WeightPoly(rebuilt) == f


def test_pack_refuses_a_weight_outside_its_bound():
    # bound 7 takes fields of 4 bits with bias 8: 8 would carry out of its
    # field, and -8 would leave no room below it before a borrow from the
    # next field, so both are refused.
    lay = weyl._layout(spec_of("G2"), 7)
    for wt in [(7, -7), (-7, 7), (0, 0)]:
        assert lay.unpack(lay.pack(wt)) == wt
    for wt in [(8, 0), (0, -8), (-8, 7), (0, 2**40)]:
        with pytest.raises(OverflowError, match="outside -7..7"):
            lay.pack(wt)


@pytest.mark.parametrize("type_str", ["A1", "G2", "E8", "B50"])
@pytest.mark.parametrize("m", [0, 1, 2, 1000, 10**6, 2**40])
def test_character_layouts_cover_the_bound_lemma(type_str, m):
    spec = spec_of(type_str)
    lay = characters._weight_layout(spec, m)
    assert lay.bound >= (spec.coxeter_number - 1) * (m + 1)
    assert lay.bias == lay.bound + 1
    assert characters._weight_layout(spec, m) is lay
