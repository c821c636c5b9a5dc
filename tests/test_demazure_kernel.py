"""The Demazure operator kernel against an independent monomial oracle.

The digests were computed by the per-term kernel that the alpha-string
kernel replaced; they pin every character byte for byte.
"""

import hashlib

import pytest

from levispherical import (
    CharacterBudgetExceeded,
    WeightPoly,
    classify,
    demazure_char,
    demazure_op,
    from_word,
    left_descents,
    levi_irreducible_char,
    longest_parabolic,
    reduced_word,
)
from levispherical import characters, weyl
from conftest import random_element, spec_of
from oracles import chamber_word, demazure_oracle, demazure_step

ORACLE_TYPES = ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "D5", "G2", "F4"]


def random_poly(spec, rng):
    """Non-dominant terms, some paired with -c at a reflected partner."""
    terms = {}
    for _ in range(rng.randint(1, 10)):
        mu = tuple(rng.randint(-5, 5) for _ in range(spec.rank))
        c = rng.choice([-3, -1, 1, 2])
        terms[mu] = terms.get(mu, 0) + c
        if rng.random() < 0.5:
            i = rng.randrange(spec.rank)
            row = spec.cartan_matrix[i]
            partner = tuple(m - mu[i] * a for m, a in zip(mu, row))
            terms[partner] = terms.get(partner, 0) - c
    return terms


@pytest.mark.parametrize("type_str", ORACLE_TYPES)
def test_demazure_op_matches_oracle(type_str, rng):
    spec = spec_of(type_str)
    for _ in range(15):
        terms = random_poly(spec, rng)
        for i in range(1, spec.rank + 1):
            want, _ = demazure_step(spec.cartan_matrix, i, terms)
            assert demazure_op(spec, WeightPoly(terms), i).as_dict() == want


@pytest.mark.parametrize("type_str", ORACLE_TYPES)
def test_demazure_char_matches_oracle_and_ceiling(type_str, rng, monkeypatch):
    spec = spec_of(type_str)
    cap = 1 if spec.rank >= 5 else 2
    checked = 0
    while checked < 10:
        w = random_element(spec, rng, max_len=len(spec.positive_roots))
        word = reduced_word(spec, w)
        if not word:
            continue
        lam = tuple(rng.randint(0, cap) for _ in range(spec.rank))
        want, _ = demazure_oracle(spec.cartan_matrix, lam, word)
        assert demazure_char(spec, lam, w).as_dict() == want
        # demazure_char composes along the walk from w(lam), and the ceiling
        # counts every weight one step of it touches, zeros included.  The
        # walk is empty when w fixes lam: there is no step to bound.
        walk = chamber_word(spec, weyl.apply_word(spec, word, lam))
        if not walk:
            continue
        _, most = demazure_oracle(spec.cartan_matrix, lam, walk)
        with monkeypatch.context() as m:
            m.setattr(characters, "DEFAULT_TERM_CEILING", most)
            assert demazure_char(spec, lam, w).as_dict() == want
            m.setattr(characters, "DEFAULT_TERM_CEILING", most - 1)
            with pytest.raises(CharacterBudgetExceeded):
                demazure_char(spec, lam, w)
        checked += 1


@pytest.mark.parametrize(
    "type_str, lam, word, terms, mass, digest",
    [
        pytest.param(
            "D5", (1, 1, 1, 1, 1), None, 13_213, 2**20,
            "838d8947cb2be5bca93b3e6be8d25bc7189060f43d43aa3966def76ec901ac06",
            id="D5-rho-w0",
        ),
        pytest.param(
            "F4", (1, 1, 1, 1), None, 15_145, 2**24,
            "af70412c7f84dad14729339b527f9348e1e17826a6ef35ed17a9b456d1cc3425",
            id="F4-rho-w0",
        ),
        pytest.param(
            "G2", (2, 1), None, 55, 189,
            "fa6287887594a1903a11c661ea42c1883ebe7091c93ebebf5e64c986a8348a07",
            id="G2-21-w0",
        ),
        pytest.param(
            "B3", (1, 1, 1), (3, 2, 1, 3, 2, 3), 90, 208,
            "079f1e791026a132e7ca459a9995c06f6b4dae4294717fd71df7b02701fff321",
            id="B3-rho-321323",
        ),
    ],
)
def test_demazure_char_is_pinned(type_str, lam, word, terms, mass, digest):
    spec = spec_of(type_str)
    if word is None:
        w = longest_parabolic(spec, range(1, spec.rank + 1))
    else:
        w = from_word(spec, word)
    ch = demazure_char(spec, lam, w)
    assert (len(ch), ch.mass()) == (terms, mass)
    assert hashlib.sha256(repr(ch.sorted_items()).encode()).hexdigest() == digest


@pytest.mark.parametrize("type_str", ["A3", "B3", "D4", "F4", "G2"])
def test_character_of_d_along_the_orbit_walk(type_str, rng):
    # pi_x e^lam = e^lam for x in the stabiliser of lam, so the word that
    # walks d(lam) back to lam gives the character of d, in no more steps.
    spec = spec_of(type_str)
    shortened = 0
    for _ in range(30):
        w = random_element(spec, rng, max_len=len(spec.positive_roots))
        levi = [i for i in sorted(left_descents(spec, w)) if rng.random() < 0.5]
        d_word = classify(spec, w, levi).d_word
        lam = [rng.randint(0, 2) for _ in range(spec.rank)]
        lam[rng.randrange(spec.rank)] = 0
        lam = tuple(lam)
        point = weyl.apply_word(spec, d_word, lam)
        walk = chamber_word(spec, point)
        want, _ = demazure_oracle(spec.cartan_matrix, lam, d_word)
        lay = characters._weight_layout(spec, max(lam))
        for word in (d_word, walk):
            terms = {lay.pack(lam): 1}
            for i in reversed(word):
                terms = characters._apply_op(lay, i, terms)
            assert characters._unpacked(lay, terms) == want
        terms = characters._orbit_char(lay, lay.pack(point), lay.top)
        assert characters._unpacked(lay, terms) == want
        assert len(walk) <= len(d_word)
        shortened += len(walk) < len(d_word)
    assert shortened


@pytest.mark.parametrize(
    "type_str, lam, steps", [("E6", (1, 0, 0, 0, 0, 0), 16), ("D4", (1, 0, 0, 0), 6)]
)
def test_a_singular_weight_spends_no_step_on_its_stabiliser(
    type_str, lam, steps, monkeypatch
):
    # pi_{w0} e^lam composed from w0(lam) walks only the minimal coset
    # representative of w0 W_lam: E6 at omega_1 takes 36 - 20 steps, D4 at
    # omega_1 takes 12 - 6, in demazure_char and levi_irreducible_char alike.
    spec = spec_of(type_str)
    nodes = tuple(range(1, spec.rank + 1))
    w0 = longest_parabolic(spec, nodes)
    want, _ = demazure_oracle(spec.cartan_matrix, lam, reduced_word(spec, w0))
    counted = []
    apply_op = characters._apply_op

    def counting(lay, i, terms):
        counted.append(i)
        return apply_op(lay, i, terms)

    monkeypatch.setattr(characters, "_apply_op", counting)
    for char in (
        lambda: demazure_char(spec, lam, w0),
        lambda: levi_irreducible_char(spec, lam, nodes),
    ):
        counted.clear()
        assert char().as_dict() == want
        assert len(counted) == steps < len(w0.word)
