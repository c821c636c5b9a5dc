"""Levi decomposition by W_I dot-action straightening.

The digests and witnesses below were computed by the greedy peeler that
straightening replaced; they pin the entry order, not just the entry set.
"""

import hashlib
import json
import random
import re
import time
from collections import Counter
from itertools import combinations

import pytest

from levispherical import (
    CharacterBudgetExceeded,
    NonDominantWeight,
    NotLeviCharacter,
    characters,
    cross_check,
    decompose_demazure,
    decompose_levi,
    demazure_char,
    enumerate_group,
    from_word,
    is_multiplicity_free,
    left_descents,
    longest_parabolic,
    reduced_word,
    run_census,
    weyl,
    witness_search,
)
from levispherical.cli import main
from conftest import random_element, spec_of
from oracles import chamber_word, demazure_oracle, dot_straighten


@pytest.mark.parametrize(
    "type_str, levi, digest",
    [
        ("B3", (1, 2), "fcff1a3e8ac68d03d7bb51234e9b404256787fdb5e7543b9e2601c6c72d59353"),
        ("D4", (1, 2, 3), "16492f402b1d1b639ca3122b42762a126409f491108f5dcc2c3fe8060efcce75"),
        ("G2", (2,), "2d33db00bd9bb4886c0004505c801263f6c38369a482ec5a48a529c181208c17"),
        ("C3", (2, 3), "0e3ec17e050ff8dbdbcf58b6e3e081e05a027babad5d29c40f7e7730038dfae6"),
    ],
)
def test_rho_w0_decomposition_order_is_pinned(type_str, levi, digest):
    spec = spec_of(type_str)
    rho = (1,) * spec.rank
    w0 = longest_parabolic(spec, range(1, spec.rank + 1))
    entries = [
        (tuple(mu), m)
        for mu, m in decompose_levi(spec, demazure_char(spec, rho, w0), levi)
    ]
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "word, levi, lam, mu, mult",
    [
        ([2, 1, 3, 4, 2, 1, 3, 4, 2], (2,), (1, 1, 1, 1), (2, 1, 0, 0), 3),
        ([2, 1, 3, 4, 2, 1, 3, 4, 2], (2,), (2, 1, 0, 1), (3, 1, -1, 0), 2),
        ([3, 2, 3, 4, 2, 1, 2], (2, 3), (2, 1, 0, 1), (1, 1, 1, 0), 2),
    ],
)
def test_mf_check_witness_is_pinned(word, levi, lam, mu, mult):
    # Several weights have multiplicity >= 2 here; the first in order wins.
    d4 = spec_of("D4")
    chk = is_multiplicity_free(d4, lam, from_word(d4, word), levi)
    assert (chk.multiplicity_free, chk.witness, chk.multiplicity) == (
        False, mu, mult,
    )


@pytest.mark.parametrize("type_str", ["B3", "G2"])
def test_mf_check_of_d_matches_decomposition_of_w(type_str):
    # is_multiplicity_free straightens ch_d; decompose_levi straightens ch_w.
    spec = spec_of(type_str)
    rho = (1,) * spec.rank
    for w in enumerate_group(spec):
        ch = demazure_char(spec, rho, w)
        descents = sorted(left_descents(spec, w))
        for k in range(len(descents) + 1):
            for levi in combinations(descents, k):
                first = next(
                    ((mu, m) for mu, m in decompose_levi(spec, ch, levi) if m >= 2),
                    None,
                )
                chk = is_multiplicity_free(spec, rho, w, levi)
                assert chk.multiplicity_free == (first is None)
                if first is not None:
                    assert (chk.witness, chk.multiplicity) == first


@pytest.mark.parametrize("type_str", ["A3", "B3", "C3", "G2"])
def test_decompose_demazure_matches_decomposition_of_w(type_str):
    # decompose_demazure straightens the character at w_0(I)(w(lam)) for any
    # I.  It must refuse exactly where decompose_levi refuses the character
    # of w, name the same s_i, and otherwise give the same entries.
    spec = spec_of(type_str)
    nodes = range(1, spec.rank + 1)
    for lam in [(1,) * spec.rank, (0,) * (spec.rank - 1) + (2,)]:
        for w in enumerate_group(spec):
            ch = demazure_char(spec, lam, w)
            for k in range(spec.rank + 1):
                for levi in combinations(nodes, k):
                    try:
                        want = decompose_levi(spec, ch, levi)
                    except NotLeviCharacter as exc:
                        moved = re.search(r"not s_\d+-invariant", str(exc)).group()
                        with pytest.raises(NotLeviCharacter, match=moved):
                            decompose_demazure(spec, lam, w, levi)
                    else:
                        assert decompose_demazure(spec, lam, w, levi) == want


def test_decompose_demazure_never_expands_the_character_of_w(monkeypatch):
    # I = {2} is not inside D_L(e) = {}, but the character at (1, 0) is
    # s_2-invariant: it decomposes without the character of w.
    a2 = spec_of("A2")
    e = from_word(a2, [])
    want = decompose_levi(a2, demazure_char(a2, (1, 0), e), (2,))

    def refuse(*args):
        raise AssertionError("the character of w was expanded")

    monkeypatch.setattr(characters, "demazure_char", refuse)
    monkeypatch.setattr(characters, "decompose_levi", refuse)
    assert decompose_demazure(a2, (1, 0), e, (2,)) == want


def test_e8_refusal_expands_no_character(capsys, monkeypatch):
    # w = w0 s_8 carries rho to a point whose coordinate 8 is positive, so
    # its character is not s_8-invariant: the refusal builds no character,
    # even under a 1-term ceiling.
    e8 = spec_of("E8")
    word = longest_parabolic(e8, range(1, 9)).word + (8,)
    w = from_word(e8, word)
    assert len(reduced_word(e8, w)) == 119
    rho = (1,) * 8
    monkeypatch.setattr(characters, "DEFAULT_TERM_CEILING", 1)
    with pytest.raises(NotLeviCharacter, match="not s_8-invariant"):
        decompose_demazure(e8, rho, w, (8,))
    argv = ["decompose", "--type", "E8", "--word", " ".join(map(str, word)),
            "--weight", "1 1 1 1 1 1 1 1", "--levi", "8"]
    assert main(argv) == 1
    assert "not s_8-invariant" in capsys.readouterr().err


def test_decompose_demazure_checks_dominance_first():
    a2 = spec_of("A2")
    w = from_word(a2, [1])
    with pytest.raises(NonDominantWeight, match="not dominant"):
        decompose_demazure(a2, (1, -1), w, [9])
    with pytest.raises(ValueError, match="out of range"):
        decompose_demazure(a2, (1, 1), w, [9])


def test_f4_rho_w0_decomposition_is_fast():
    f4 = spec_of("F4")
    start = time.perf_counter()
    ch = demazure_char(f4, (1, 1, 1, 1), longest_parabolic(f4, range(1, 5)))
    entries = decompose_levi(f4, ch, (2, 3))
    elapsed = time.perf_counter() - start
    assert ch.mass() == 2 ** 24 and entries
    assert elapsed < 15.0, f"F4 rho decomposition took {elapsed:.1f}s"


def test_decompose_command_straightens_the_character_of_d(capsys, monkeypatch):
    # I = {2, 3} lies in the descents of w, so decompose expands only the
    # character of d = w_0(I) w: one step touches at most 21 weights there,
    # against 183 for the character of w.
    d4 = spec_of("D4")
    word = [3, 2, 3, 4, 2, 1, 2]
    argv = ["decompose", "--type", "D4", "--word", "3 2 3 4 2 1 2",
            "--weight", "1 1 1 1", "--levi", "2 3"]
    ch = demazure_char(d4, (1, 1, 1, 1), from_word(d4, word))
    entries = decompose_levi(d4, ch, (2, 3))
    want = json.dumps(characters.decomposition_to_json(entries))
    monkeypatch.setattr(characters, "DEFAULT_TERM_CEILING", 21)
    assert main(argv) == 0
    assert capsys.readouterr().out == want + "\n"
    monkeypatch.setattr(characters, "DEFAULT_TERM_CEILING", 20)
    assert main(argv) == 3


def test_decompose_command_outside_the_descents(capsys):
    # I not inside D_L(w): decomposed where w(lam) is I-antidominant, and
    # refused, naming the s_i, where it is not.
    assert main(["decompose", "--type", "A2", "--word", "", "--weight", "1 0",
                 "--levi", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == [{"mu": [1, 0], "mult": 1}]
    assert main(["decompose", "--type", "A2", "--word", "1", "--weight", "1 1",
                 "--levi", "2"]) == 1
    assert "not s_2-invariant" in capsys.readouterr().err


def term_kind(mu, subset):
    on_i = [mu[i - 1] for i in subset]
    if min(on_i, default=0) >= 0:
        return "dominant"
    return "wall" if -1 in on_i else "walked"


def nonzero(mults):
    return {nu: m for nu, m in mults.items() if m}


def straightening_subsets(spec, rng):
    nodes = range(1, spec.rank + 1)
    yield ()
    yield tuple(nodes)
    for i in nodes:
        yield (i,)
    for _ in range(3):
        yield tuple(i for i in nodes if rng.random() < 0.5)


def straighten(spec, terms, subset):
    """characters._straighten on terms packed in the layout of their reach."""
    lay, packed = characters._packed(spec, terms)
    return characters._unpacked(lay, characters._straighten(lay, packed, subset))


@pytest.mark.parametrize("type_str", ["A3", "B3", "D4", "G2", "F4"])
def test_straighten_matches_the_dot_action_oracle(type_str, rng):
    # Characters of random v straightened over any I: pi_{w_0(I)} pi_v is a
    # Demazure operator, so every multiplicity is >= 0.  Random signed terms
    # also go through; a negative multiplicity must raise.
    spec = spec_of(type_str)
    cartan = spec.cartan_matrix
    kinds = Counter()
    for subset in straightening_subsets(spec, rng):
        for _ in range(4):
            v = random_element(spec, rng, max_len=len(spec.positive_roots))
            lam = tuple(rng.randint(0, 2) for _ in range(spec.rank))
            terms, _ = demazure_oracle(cartan, lam, reduced_word(spec, v))
            kinds.update(term_kind(mu, subset) for mu in terms)
            want = nonzero(dot_straighten(cartan, terms, subset))
            assert min(want.values(), default=0) >= 0
            assert straighten(spec, terms, subset) == want
        for _ in range(10):
            terms = {
                tuple(rng.randint(-4, 3) for _ in range(spec.rank)):
                    rng.choice([-2, -1, 1, 3])
                for _ in range(rng.randint(1, 12))
            }
            want = nonzero(dot_straighten(cartan, terms, subset))
            if min(want.values(), default=0) < 0:
                with pytest.raises(NotLeviCharacter, match="negative multiplicity"):
                    straighten(spec, terms, subset)
            else:
                assert straighten(spec, terms, subset) == want
    assert kinds["dominant"] and kinds["wall"] and kinds["walked"]


def census_and_battery(spec):
    records = []
    run_census(spec, records_out=records)
    return records, [(1,) * spec.rank, (2,) + (0,) * (spec.rank - 1)]


def memo_reading_results(spec):
    """Every public result that reads characters of d, for a census of spec."""
    records, battery = census_and_battery(spec)
    witnesses = [
        witness_search(spec, from_word(spec, rec.w_word), rec.levi)
        for rec in records
        if not rec.spherical
    ]
    checks = [
        is_multiplicity_free(spec, lam, from_word(spec, rec.w_word), rec.levi)
        for rec in records
        for lam in battery
    ]
    report = cross_check(spec, records, battery, sample=1.0)
    return witnesses, checks, report.to_json_dict()


def memo_walk(memo, spec, records, battery):
    """What a complete cross-check reads from memo, through the same seams.

    One straightener per record, all on memo: a spherical record's packed
    multiplicities at every battery weight, or the witness loop's result.
    """
    out = []
    for rec in records:
        w = from_word(spec, rec.w_word)
        subset = characters._check_descents(spec, w, rec.levi)
        multiplicities = characters._levi_straightener(spec, w, subset, memo)
        if rec.spherical:
            out.append([multiplicities(lam)[1] for lam in battery])
        else:
            cap = characters.DEFAULT_WITNESS_CAP
            out.append(characters._first_witness(multiplicities, spec.rank, cap))
    return out


@pytest.mark.parametrize("type_str", ["B3", "G2"])
def test_orbit_memo_is_transparent(type_str, monkeypatch):
    spec = spec_of(type_str)
    records, battery = census_and_battery(spec)
    unmemoised = characters._TermMemo(0)
    reference = memo_walk(unmemoised, spec, records, battery)
    assert unmemoised.held == 0 and not unmemoised.entries
    memo = characters._TermMemo()
    cold = memo_walk(memo, spec, records, battery)
    assert memo.held > 0
    entries = dict(memo.entries)
    warm = memo_walk(memo, spec, records, battery)
    assert memo.entries == entries
    assert cold == warm == reference
    # The public results, each cross-check on its own memo, are those of no memo.
    public = memo_reading_results(spec)
    monkeypatch.setattr(characters, "_D_CHAR_TERMS", 0)
    assert memo_reading_results(spec) == public


def test_orbit_memo_keeps_the_term_ceiling(monkeypatch):
    # A character expanded under one ceiling is never handed out under a
    # lower one: a single call keeps none of the characters it composes.
    d4 = spec_of("D4")
    w0 = longest_parabolic(d4, range(1, 5))
    rho = (1, 1, 1, 1)
    warm = is_multiplicity_free(d4, rho, w0, ())
    found = witness_search(d4, w0, (2,), coeff_cap=1)
    monkeypatch.setattr(characters, "DEFAULT_TERM_CEILING", 10)
    with pytest.raises(CharacterBudgetExceeded):
        is_multiplicity_free(d4, rho, w0, ())
    with pytest.raises(CharacterBudgetExceeded, match="12 of 15 weights lambda"):
        witness_search(d4, w0, (2,), coeff_cap=1)
    monkeypatch.setattr(characters, "DEFAULT_TERM_CEILING", 5_000_000)
    assert is_multiplicity_free(d4, rho, w0, ()) == warm
    assert witness_search(d4, w0, (2,), coeff_cap=1) == found


class CheckedMemo(characters._TermMemo):
    """A memo that checks its bound and its count after every store."""

    def __init__(self, bound):
        super().__init__(bound)
        self.puts = 0
        self.stored = []

    def put(self, key, terms):
        super().put(key, terms)
        self.puts += 1
        if key in self.entries:
            self.stored.append(key)
        assert self.held == sum(map(len, self.entries.values())) <= self.bound


def test_orbit_memo_is_bounded(monkeypatch):
    spec = spec_of("B3")
    records, battery = census_and_battery(spec)
    memo = CheckedMemo(60)
    assert memo_walk(memo, spec, records, battery) == memo_walk(
        memo, spec, records, battery
    )
    # Oldest out first: what is held is the newest run of stores.
    held = list(memo.entries)
    assert held and len(held) < len(memo.stored) <= memo.puts
    assert memo.stored[-len(held):] == held
    memo.put("too large", {(i, 0, 0): 1 for i in range(61)})
    assert "too large" not in memo.entries and list(memo.entries) == held
    # Walks that resume from a held point and lose it to eviction on the way
    # back up read the same as no memo at all.
    tight = memo_walk(memo, spec, records, battery)
    assert memo_walk(characters._TermMemo(0), spec, records, battery) == tight
    # So do the public results, the cross-check report included, when every
    # call's memo holds 60 terms.
    public = memo_reading_results(spec)
    monkeypatch.setattr(characters, "_D_CHAR_TERMS", 60)
    assert memo_reading_results(spec) == public
    monkeypatch.setattr(characters, "_D_CHAR_TERMS", 0)
    assert memo_reading_results(spec) == public


def fundamentals_and_rho(spec):
    n = spec.rank
    return [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(1,) * n]


@pytest.mark.parametrize("type_str", ["B3", "G2", "D4", "F4"])
def test_orbit_char_resumes_along_the_walk(type_str):
    # Visited in random order, each orbit point resumes from whatever earlier
    # visits stored on its walk, and must still give the very dict the whole
    # walk gives, insertion order included.  On F4 at rho only the points
    # within 8 letters of rho are visited: all 1,152 take about a minute.
    spec = spec_of(type_str)
    rng = random.Random(7)
    group = list(enumerate_group(spec))
    for lam in fundamentals_and_rho(spec):
        memo = characters._TermMemo()
        lay = characters._weight_layout(spec, max(lam))
        points = sorted({weyl.apply_word(spec, w.word, lam) for w in group})
        if type_str == "F4" and min(lam):
            points = [p for p in points if len(chamber_word(spec, p)) <= 8]
        rng.shuffle(points)
        for p in points:
            want = {lay.pack(lam): 1}
            for i in reversed(chamber_word(spec, p)):
                want = characters._apply_op(lay, i, want)
            got = characters._orbit_char(lay, lay.pack(p), lay.top, memo)
            assert list(got.items()) == list(want.items())


def test_orbit_char_steps_once_per_stored_point(monkeypatch):
    # A complete cross-check runs one operator step per character its memo
    # stores, and the same walk through the seams stores each step's output.
    spec = spec_of("F4")
    records, _ = census_and_battery(spec)
    battery = fundamentals_and_rho(spec)
    steps = Counter()
    apply_op = characters._apply_op

    def counted(lay, i, terms):
        out = apply_op(lay, i, terms)
        steps[id(out)] += 1
        return out

    monkeypatch.setattr(characters, "_apply_op", counted)
    monkeypatch.setattr(characters, "_D_CHAR_TERMS", 10**9)
    report = cross_check(spec, records, battery, sample=1.0)
    assert report.sampled == 5089 and report.witness_inconclusive == 0
    checked = sum(steps.values())
    steps.clear()
    memo = characters._TermMemo()
    assert memo.bound == 10**9
    memo_walk(memo, spec, records, battery)
    assert sum(steps.values()) == len(memo.entries) == checked > 0
    assert {id(terms) for terms in memo.entries.values()} == set(steps)


@pytest.mark.parametrize("bound", [0, 60, None])
def test_cross_check_memo_takes_the_bound_in_force(bound, monkeypatch):
    # cross_check makes its memo when it runs, under the _D_CHAR_TERMS of
    # that moment, so it runs the operator steps of a seam walk on a memo
    # of that bound: more of them the smaller the bound.
    spec = spec_of("B3")
    records, battery = census_and_battery(spec)
    steps = []
    apply_op = characters._apply_op

    def counted(lay, i, terms):
        steps.append(i)
        return apply_op(lay, i, terms)

    monkeypatch.setattr(characters, "_apply_op", counted)
    memo_walk(characters._TermMemo(), spec, records, battery)
    stored_once = len(steps)
    if bound is not None:
        monkeypatch.setattr(characters, "_D_CHAR_TERMS", bound)
    steps.clear()
    memo_walk(characters._TermMemo(), spec, records, battery)
    walked = len(steps)
    steps.clear()
    cross_check(spec, records, battery, sample=1.0)
    assert len(steps) == walked
    assert (walked > stored_once) == (bound is not None)


def test_witness_search_counts_zero_without_expanding_it(monkeypatch):
    # lam = 0 comes first and its module is trivial: it spends the budget of
    # one weight, and nothing is expanded or straightened.
    def refuse(*args):
        raise AssertionError("lam = 0 was expanded")

    d4 = spec_of("D4")
    w = from_word(d4, (3, 2, 3, 4, 2, 1, 2))
    monkeypatch.setattr(characters, "DEFAULT_LAMBDA_BUDGET", 1)
    monkeypatch.setattr(characters, "_apply_op", refuse)
    monkeypatch.setattr(characters, "_straighten", refuse)
    assert witness_search(d4, w, (2, 3)) is None
    memo = characters._TermMemo()
    multiplicities = characters._levi_straightener(d4, w, (2, 3), memo)
    assert characters._first_witness(multiplicities, d4.rank, 2) is None
    assert not memo.entries


SINGLE_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda spec, w: is_multiplicity_free(spec, (1, 1, 1, 1), w, (2, 3)),
        lambda spec, w: witness_search(spec, w, (2, 3)),
        lambda spec, w: decompose_demazure(spec, (1, 1, 1, 1), w, (2, 3)),
    ],
    ids=["is_multiplicity_free", "witness_search", "decompose_demazure"],
)


@SINGLE_CALLS
def test_separate_calls_share_no_characters(call, monkeypatch):
    # A single call keeps none of the characters it composes, so an
    # identical second call runs every operator step the first ran.
    d4 = spec_of("D4")
    w = from_word(d4, (3, 2, 3, 4, 2, 1, 2))
    steps = []
    apply_op = characters._apply_op

    def counted(lay, i, terms):
        steps.append(i)
        return apply_op(lay, i, terms)

    monkeypatch.setattr(characters, "_apply_op", counted)
    first = call(d4, w)
    once = len(steps)
    assert once > 0
    assert call(d4, w) == first
    assert len(steps) == 2 * once


@SINGLE_CALLS
def test_a_single_call_keeps_no_character(call, monkeypatch):
    # Only a cross-check keeps the characters it composes: a single call
    # stores none, while the same straightener on a memo stores its walk.
    d4 = spec_of("D4")
    w = from_word(d4, (3, 2, 3, 4, 2, 1, 2))
    stored = []
    monkeypatch.setattr(
        characters._TermMemo, "put", lambda memo, key, terms: stored.append(key)
    )
    call(d4, w)
    assert stored == []
    characters._levi_straightener(d4, w, (2, 3), characters._TermMemo())((1, 1, 1, 1))
    assert stored


def test_characters_holds_no_module_level_memo():
    # Memos belong to the call that makes them; the lru_caches are the only
    # state the module keeps.
    mutable = (dict, list, set, characters._TermMemo)
    held = [
        name
        for name, value in vars(characters).items()
        if not name.startswith("__") and isinstance(value, mutable)
    ]
    assert held == []


def test_witness_weights_are_bounded_by_the_budget():
    # The coefficient cap is user input; the cached list never outgrows the
    # lambda budget, and starts at lam = 0.
    weights = characters._dominant_weights_graded(8, 10**9, 50)
    assert len(weights) == 50 and weights[0] == (0,) * 8
    assert weights == tuple(sorted(weights, key=characters.weight_sort_key))
    full = characters._dominant_weights_graded(3, 2, 10_000)
    assert len(full) == 27 and len(set(full)) == 27
