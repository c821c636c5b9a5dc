import itertools

import pytest

from levispherical import (
    CharacterBudgetExceeded,
    LeviNotInDescents,
    MultiplicityCheck,
    NonDominantWeight,
    NotLeviCharacter,
    WeightPoly,
    Witness,
    decompose_levi,
    demazure_char,
    demazure_op,
    from_word,
    identity,
    is_dominant,
    is_levi_dominant,
    is_multiplicity_free,
    left_descents,
    levi_irreducible_char,
    multiply,
    reduced_word,
    reflect_weight,
    simple_reflection,
    witness_search,
)
from levispherical import characters
from levispherical.characters import decomposition_to_json, weight_sort_key
from conftest import random_element, spec_of
from oracles import first_moved_term, levi_symmetrise, weyl_dimension


def test_weight_poly_repr_and_foreign_equality():
    a2 = spec_of("A2")
    small = demazure_char(a2, (1, 0), from_word(a2, [1]))
    assert repr(small) == "WeightPoly(1*e(-1, 1), 1*e(1, 0))"
    adjoint = demazure_char(a2, (1, 1), from_word(a2, [1, 2, 1]))
    assert repr(adjoint).endswith(", ... (7 terms))")
    assert repr(adjoint).count("*e(") == 6
    assert small != small.as_dict() and small.__eq__(small.as_dict()) is NotImplemented


def random_poly(spec, rng, terms=5):
    data = {}
    for _ in range(terms):
        wt = tuple(rng.randint(-4, 4) for _ in range(spec.rank))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        data[wt] = data.get(wt, 0) + c
    return WeightPoly(data)


def op_along(spec, word, poly):
    # Innermost operator is the last letter, matching character builds.
    for i in reversed(word):
        poly = demazure_op(spec, poly, i)
    return poly


def test_weight_poly_basics():
    p = WeightPoly({(1, 0): 2, (0, 1): 0, (-1, 3): -1})
    assert len(p) == 2
    assert p.coeff((0, 1)) == 0
    assert p.mass() == 1
    assert bool(p)
    assert not WeightPoly({})
    assert WeightPoly.monomial((2, 2)) == WeightPoly({(2, 2): 1})


def test_reflect_weight_examples():
    a1 = spec_of("A1")
    assert reflect_weight(a1, (3,), 1) == (-3,)
    a2 = spec_of("A2")
    assert reflect_weight(a2, (1, 0), 1) == (-1, 1)
    assert reflect_weight(a2, (0, 5), 1) == (0, 5)
    for wt in [(2, -3), (0, 0), (-1, 4)]:
        for i in (1, 2):
            assert reflect_weight(a2, reflect_weight(a2, wt, i), i) == wt


def test_demazure_op_monomial_cases():
    a1 = spec_of("A1")
    up = demazure_op(a1, WeightPoly.monomial((2,)), 1)
    assert up == WeightPoly({(2,): 1, (0,): 1, (-2,): 1})
    assert demazure_op(a1, WeightPoly.monomial((-1,)), 1) == WeightPoly({})
    down = demazure_op(a1, WeightPoly.monomial((-3,)), 1)
    assert down == WeightPoly({(-1,): -1, (1,): -1})
    a2 = spec_of("A2")
    assert demazure_op(a2, WeightPoly.monomial((1, 0)), 1) == WeightPoly(
        {(1, 0): 1, (-1, 1): 1}
    )


def test_demazure_op_is_linear(rng):
    spec = spec_of("B2")
    for _ in range(20):
        f = random_poly(spec, rng)
        g = random_poly(spec, rng)
        fg = WeightPoly(
            {
                wt: f.coeff(wt) + g.coeff(wt)
                for wt in set(f.weights()) | set(g.weights())
            }
        )
        for i in (1, 2):
            lhs = demazure_op(spec, fg, i)
            a = demazure_op(spec, f, i).as_dict()
            for wt, c in demazure_op(spec, g, i).items():
                a[wt] = a.get(wt, 0) + c
            assert lhs == WeightPoly(a)


@pytest.mark.parametrize("type_str", ["A2", "B2", "G2"])
def test_demazure_op_idempotent(type_str, rng):
    spec = spec_of(type_str)
    for _ in range(20):
        f = random_poly(spec, rng)
        for i in range(1, spec.rank + 1):
            once = demazure_op(spec, f, i)
            assert demazure_op(spec, once, i) == once


@pytest.mark.parametrize(
    "type_str,left,right",
    [
        ("A2", (1, 2, 1), (2, 1, 2)),
        ("B2", (1, 2, 1, 2), (2, 1, 2, 1)),
        ("G2", (1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1)),
    ],
)
def test_demazure_op_braid_relations(type_str, left, right, rng):
    spec = spec_of(type_str)
    for _ in range(15):
        f = random_poly(spec, rng)
        assert op_along(spec, left, f) == op_along(spec, right, f)


def test_demazure_char_examples():
    a2 = spec_of("A2")
    lam = (3, 1)
    assert demazure_char(a2, lam, identity(a2)) == WeightPoly.monomial(lam)
    a1 = spec_of("A1")
    for m in range(5):
        ch = demazure_char(a1, (m,), simple_reflection(a1, 1))
        assert ch.mass() == m + 1
        assert set(ch.weights()) == {(m - 2 * j,) for j in range(m + 1)}
    w0 = from_word(a2, [1, 2, 1])
    assert demazure_char(a2, (1, 1), w0).mass() == 8


def test_demazure_char_rejects_non_dominant():
    a2 = spec_of("A2")
    with pytest.raises(NonDominantWeight):
        demazure_char(a2, (1, -1), from_word(a2, [1]))


def test_demazure_char_top_coefficient_is_one(rng):
    spec = spec_of("B3")
    for _ in range(10):
        w = random_element(spec, rng)
        lam = tuple(rng.randint(0, 2) for _ in range(3))
        assert demazure_char(spec, lam, w).coeff(lam) == 1


def test_demazure_char_word_independent(rng):
    # Two different reduced words must produce the identical polynomial.
    for type_str, words in [
        ("A2", ([1, 2, 1], [2, 1, 2])),
        ("B2", ([1, 2, 1, 2], [2, 1, 2, 1])),
        ("D4", ([1, 3, 4, 2], [3, 1, 4, 2], [4, 3, 1, 2])),
    ]:
        spec = spec_of(type_str)
        lam = tuple(1 for _ in range(spec.rank))
        base = None
        for word in words:
            got = op_along(spec, word, WeightPoly.monomial(lam))
            if base is None:
                base = got
            assert got == base
        assert base == demazure_char(spec, lam, from_word(spec, words[0]))


def test_demazure_char_descent_symmetry(rng):
    # For every left descent i, the character is stable under s_i on weights.
    spec = spec_of("B3")
    for _ in range(10):
        w = random_element(spec, rng)
        lam = (1, 1, 1)
        ch = demazure_char(spec, lam, w)
        for i in left_descents(spec, w):
            reflected = {reflect_weight(spec, wt, i): c for wt, c in ch.items()}
            assert reflected == ch.as_dict()


def test_demazure_char_grows_up_weak_order(rng):
    for type_str in ("A2", "B2", "B3"):
        spec = spec_of(type_str)
        lam = tuple(1 for _ in range(spec.rank))
        for _ in range(15):
            w = random_element(spec, rng)
            free = [
                i
                for i in range(1, spec.rank + 1)
                if i not in left_descents(spec, w)
            ]
            if not free:
                continue
            i = rng.choice(free)
            bigger = multiply(spec, simple_reflection(spec, i), w)
            assert (
                demazure_char(spec, lam, bigger).mass()
                >= demazure_char(spec, lam, w).mass()
            )


def test_demazure_char_term_budget(monkeypatch):
    b3 = spec_of("B3")
    w = from_word(b3, [1, 2, 3, 1, 2, 1, 3, 2, 3])
    monkeypatch.setattr(characters, "DEFAULT_TERM_CEILING", 10)
    with pytest.raises(CharacterBudgetExceeded):
        demazure_char(b3, (2, 2, 2), w)


def test_levi_irreducible_char_examples():
    a2 = spec_of("A2")
    assert levi_irreducible_char(a2, (4, -7), ()) == WeightPoly.monomial((4, -7))
    assert levi_irreducible_char(a2, (1, 0), (1,)) == WeightPoly(
        {(1, 0): 1, (-1, 1): 1}
    )
    assert levi_irreducible_char(a2, (1, 1), (1, 2)).mass() == 8
    # Coordinates off the subset ride along unconstrained.
    rode = levi_irreducible_char(a2, (-2, 1), (2,))
    assert rode == WeightPoly({(-2, 1): 1, (-1, -1): 1})
    with pytest.raises(NonDominantWeight):
        levi_irreducible_char(a2, (-1, 0), (1,))


@pytest.mark.parametrize(
    "type_str,lam",
    [
        ("A2", (1, 1)),
        ("A2", (2, 0)),
        ("A3", (1, 0, 1)),
        ("B2", (1, 1)),
        ("B3", (0, 1, 0)),
        ("C3", (1, 0, 0)),
        ("D4", (0, 1, 0, 0)),
        ("G2", (1, 0)),
        ("G2", (0, 1)),
        ("F4", (0, 0, 0, 1)),
    ],
)
def test_full_levi_char_matches_weyl_dimension(type_str, lam):
    # Independent cross-check of the whole operator pipeline: mass of the
    # character at the full subset equals the Weyl dimension formula.
    spec = spec_of(type_str)
    full = tuple(range(1, spec.rank + 1))
    got = levi_irreducible_char(spec, lam, full).mass()
    assert got == weyl_dimension(spec.cartan_matrix, spec.positive_roots, lam)


def test_levi_char_is_levi_symmetric():
    d4 = spec_of("D4")
    subset = (2, 3)
    ch = levi_irreducible_char(d4, (1, 2, 0, -1), subset)
    for i in subset:
        reflected = {reflect_weight(d4, wt, i): c for wt, c in ch.items()}
        assert reflected == ch.as_dict()
    for i in subset:
        assert demazure_op(d4, ch, i) == ch


def test_decompose_levi_examples():
    a2 = spec_of("A2")
    assert decompose_levi(a2, WeightPoly.monomial((3, -2)), ()) == (
        ((3, -2), 1),
    )
    w0 = from_word(a2, [1, 2, 1])
    assert decompose_levi(a2, demazure_char(a2, (1, 1), w0), (1, 2)) == (
        ((1, 1), 1),
    )
    ch = demazure_char(a2, (1, 1), from_word(a2, [1, 2]))
    entries = decompose_levi(a2, ch, (1,))
    assert entries == (((1, 1), 1), ((2, -1), 1))


def reconstruct(spec, entries, subset):
    total = {}
    for mu, m in entries:
        for wt, c in levi_irreducible_char(spec, mu, subset).items():
            total[wt] = total.get(wt, 0) + m * c
    return WeightPoly(total)


@pytest.mark.parametrize("type_str", ["A3", "B3", "D4"])
def test_decompose_levi_reconstructs(type_str, rng):
    spec = spec_of(type_str)
    lam = tuple(1 for _ in range(spec.rank))
    for _ in range(15):
        w = random_element(spec, rng)
        descents = sorted(left_descents(spec, w))
        subset = tuple(i for i in descents if rng.random() < 0.6)
        ch = demazure_char(spec, lam, w)
        entries = decompose_levi(spec, ch, subset)
        assert all(m >= 1 for _, m in entries)
        assert all(is_levi_dominant(mu, subset) for mu, _ in entries)
        assert len({mu for mu, _ in entries}) == len(entries)
        assert reconstruct(spec, entries, subset) == ch
        masses = sum(
            m * levi_irreducible_char(spec, mu, subset).mass()
            for mu, m in entries
        )
        assert masses == ch.mass()


def test_decompose_levi_rejects_non_characters():
    a2 = spec_of("A2")
    # Negative coefficient can never come from a genuine module character.
    with pytest.raises(NotLeviCharacter):
        decompose_levi(a2, WeightPoly({(0, 0): -1}), (1,))
    # Demazure character over a subset that is not inside the descent set.
    ch = demazure_char(a2, (1, 1), from_word(a2, [1]))
    with pytest.raises(NotLeviCharacter):
        decompose_levi(a2, ch, (2,))


def test_not_levi_character_message_ignores_term_order():
    # The smallest moving node, then its smallest moved weight in
    # weight_sort_key order: one polynomial gives one message.
    a3 = spec_of("A3")
    items = list(demazure_char(a3, (0, 1, 2), from_word(a3, [3, 1, 2])).items())
    messages = set()
    for order in (items, items[::-1]):
        with pytest.raises(NotLeviCharacter) as exc:
            decompose_levi(a3, WeightPoly(dict(order)), (1, 2, 3))
        messages.add(str(exc.value))
    assert messages == {
        "the input is not s_2-invariant: coefficient 1 at (-1, 3, -3)"
    }


def test_negative_multiplicity_message_ignores_term_order():
    # -2 chi_I(1, 0) - 3 e^0 over I = {1} of A2: two negative entries, and
    # the message names the first one in decomposition order.
    a2 = spec_of("A2")
    items = [((1, 0), -2), ((-1, 1), -2), ((0, 0), -3)]
    messages = set()
    for order in itertools.permutations(items):
        with pytest.raises(NotLeviCharacter) as exc:
            decompose_levi(a2, WeightPoly(dict(order)), (1,))
        messages.add(str(exc.value))
    assert messages == {"weight (1, 0) has negative multiplicity -2"}


def _perturb(f, kind, subset, rank, rng):
    """f with one term dropped, one coefficient changed, or a lone term added.

    The lone term has every coordinate in I <= 0 and one < 0, so no s_i
    with i in I takes it to the positive side: only comparing the sizes of
    the two sides can see it.
    """
    f = dict(f)
    if kind == "drop" and f:
        del f[rng.choice(sorted(f))]
    elif kind == "change" and f:
        wt = rng.choice(sorted(f))
        f[wt] += rng.choice([c for c in (-2, -1, 1, 2) if f[wt] + c])
    elif kind == "lone":
        while True:
            wt = [rng.randint(-3, 3) for _ in range(rank)]
            for i in subset:
                wt[i - 1] = -abs(wt[i - 1])
            wt[rng.choice(subset) - 1] = -rng.randint(1, 3)
            if tuple(wt) not in f:
                break
        f[tuple(wt)] = rng.choice([-2, -1, 1, 2])
    return f


@pytest.mark.parametrize("type_str", ["A3", "B3", "G2"])
def test_invariance_check_matches_reflection_oracle(type_str, rng):
    # W_I-symmetrised random polynomials, as they are or perturbed: the
    # input is refused as non-invariant exactly when reflecting every term
    # by the Cartan matrix finds a moved one, and the message agrees.
    spec = spec_of(type_str)
    n, cartan = spec.rank, spec.cartan_matrix
    outcomes = {"accepted": 0, "moved": 0, "negative": 0}
    for trial in range(120):
        subset = tuple(i for i in range(1, n + 1) if rng.random() < 0.6)
        subset = subset or (rng.randint(1, n),)
        seed = {
            tuple(rng.randint(-3, 3) for _ in range(n)): rng.choice([1, 2, -1])
            for _ in range(rng.randint(1, 3))
        }
        f = levi_symmetrise(cartan, seed, subset)
        assert first_moved_term(cartan, f, subset) is None
        kind = ("none", "drop", "change", "lone")[trial % 4]
        f = _perturb(f, kind, subset, n, rng)
        expected = first_moved_term(cartan, f, subset)
        if kind == "lone":
            assert expected is not None
        try:
            decompose_levi(spec, WeightPoly(f), subset)
        except NotLeviCharacter as exc:
            message = str(exc)
        else:
            message = None
        if expected is None:
            assert message is None or "negative multiplicity" in message
            outcomes["accepted" if message is None else "negative"] += 1
        else:
            i, wt = expected
            assert message == (
                f"the input is not s_{i}-invariant: coefficient {f[wt]} at {wt}"
            )
            outcomes["moved"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_is_multiplicity_free_trivial_and_golden():
    a2 = spec_of("A2")
    chk = is_multiplicity_free(a2, (2, 3), identity(a2), ())
    assert chk and chk.multiplicity_free and chk.witness is None
    d4 = spec_of("D4")
    w = from_word(d4, [3, 2, 3, 4, 2, 1, 2])
    bad = is_multiplicity_free(d4, (1, 1, 0, 0), w, (2, 3))
    assert not bad
    assert bad.witness == (0, 1, 1, -1)
    assert bad.multiplicity == 2
    f4 = spec_of("F4")
    wf = from_word(f4, [4, 3, 4, 2, 3, 4, 2, 3, 2, 1, 2, 3, 4])
    for k in range(4):
        lam = tuple(1 if i == k else 0 for i in range(4))
        assert is_multiplicity_free(f4, lam, wf, (2, 3, 4))


def test_is_multiplicity_free_preconditions():
    a2 = spec_of("A2")
    w = from_word(a2, [1])
    with pytest.raises(NonDominantWeight):
        is_multiplicity_free(a2, (-1, 0), w, (1,))
    with pytest.raises(LeviNotInDescents):
        is_multiplicity_free(a2, (1, 1), w, (2,))


def test_witness_search_golden():
    d4 = spec_of("D4")
    w = from_word(d4, [3, 2, 3, 4, 2, 1, 2])
    got = witness_search(d4, w, (2, 3), coeff_cap=1)
    assert got == Witness((1, 1, 0, 0), (0, 1, 1, -1), 2)
    # A witness is a genuine multiplicity, not just a flag.
    chk = is_multiplicity_free(d4, got.lam, w, (2, 3))
    assert not chk and chk.multiplicity >= 2


def test_witness_search_finds_nothing_when_spherical():
    f4 = spec_of("F4")
    w = from_word(f4, [4, 3, 4, 2, 3, 4, 2, 3, 2, 1, 2, 3, 4])
    assert witness_search(f4, w, (2, 3, 4), coeff_cap=1) is None
    a2 = spec_of("A2")
    assert witness_search(a2, identity(a2), (), coeff_cap=3) is None


def test_witness_search_respects_lambda_budget(monkeypatch):
    d4 = spec_of("D4")
    w = from_word(d4, [3, 2, 3, 4, 2, 1, 2])
    # The zero weight is scanned first and never witnesses anything.
    monkeypatch.setattr(characters, "DEFAULT_LAMBDA_BUDGET", 1)
    assert witness_search(d4, w, (2, 3), coeff_cap=2) is None


def test_witness_search_rejects_bad_levi():
    a2 = spec_of("A2")
    with pytest.raises(LeviNotInDescents):
        witness_search(a2, from_word(a2, [1]), (2,))


def test_serialization_orders():
    a2 = spec_of("A2")
    ch = demazure_char(a2, (1, 1), from_word(a2, [1, 2]))
    obj = ch.to_json_obj()
    keys = [tuple(entry["weight"]) for entry in obj]
    assert keys == sorted(keys, key=weight_sort_key)
    assert all(set(entry) == {"weight", "coeff"} for entry in obj)
    entries = decompose_levi(a2, ch, (1,))
    js = decomposition_to_json(entries)
    # Graded-lex order: (2,-1) has weight-sum 1, below (1,1) at 2.
    assert js == [{"mu": [2, -1], "mult": 1}, {"mu": [1, 1], "mult": 1}]


def test_multiplicity_check_truthiness():
    good = MultiplicityCheck(True, None, None)
    bad = MultiplicityCheck(False, (0, 0), 2)
    assert bool(good) and not bool(bad)


def test_is_dominant_helpers():
    assert is_dominant((0, 0, 0))
    assert is_dominant((3, 1, 2))
    assert not is_dominant((1, -1, 0))
    assert is_levi_dominant((1, -1, 0), (1,))
    assert not is_levi_dominant((1, -1, 0), (1, 2))
    assert is_levi_dominant((-5, -5), ())
