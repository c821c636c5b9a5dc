"""Canonical words, stripped from w(rho) or spelled by the census; record text.

An element holds only its packed w(rho) and strips its word when read; the
census reads each word of w from the enumeration stream and each length
of w_0(I) from weyl._w0, and strips only d, over its leading nodes.
"""

import itertools
import json
import random

import pytest

from levispherical import (
    census,
    enumerate_group,
    from_word,
    longest_parabolic,
    run_census,
    weyl,
)
from levispherical.census import CensusRecord
from conftest import random_word, spec_of
from oracles import chamber_walk, chamber_word, longest_parabolic_ascent


@pytest.mark.parametrize("type_str", ["A4", "B4", "D4", "F4", "G2", "E6"])
def test_enumeration_carries_the_canonical_word(type_str):
    spec = spec_of(type_str)
    words = [word for _, word in weyl._elements(spec, weyl.DEFAULT_ENUM_CAP)]
    for w, word in zip(enumerate_group(spec), words, strict=True):
        assert w.word == word == chamber_word(spec, w.rho_image)


def test_census_strips_only_d_and_each_w0_once(monkeypatch):
    spec = spec_of("F4")
    lay = weyl._layout(spec)
    calls = {"_split": 0, "word": 0}
    full_walks = []

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    def reading_word(w):
        calls["word"] += 1
        return strip(w)

    def walking(self, p, head):
        if head == self.top:
            full_walks.append(p)
        return walk(self, p, head)

    strip, walk = weyl.WeylElement.word.fget, weyl._Layout.walk
    counting(census, "_split")
    monkeypatch.setattr(weyl.WeylElement, "word", property(reading_word))
    monkeypatch.setattr(weyl._Layout, "walk", walking)
    weyl._w0.cache_clear()
    summary = run_census(spec)
    assert summary.pair_count == 5089
    # The kernel derives d once per record.  It walks d(rho) over the leading
    # nodes and looks the rest of the word up, so no element is stripped
    # whole: not w, not d, and not w0(I), whose word is the walk of -rho over
    # I.  The one walk over every node is that of -rho for I = {1, 2, 3, 4}.
    assert calls == {"_split": summary.pair_count, "word": 0}
    # The package walks packed weights only: no walk over tuples is left.
    assert not hasattr(weyl, "_word") and not hasattr(weyl, "_walk")
    assert full_walks == [2 * lay.top - lay.rho]


@pytest.mark.parametrize(
    "type_str, levi_mode",
    [(t, m) for t in ("B3", "G2", "F4", "D5") for m in census.LEVI_MODES]
    + [("E6", "full-descent-only")],
)
def test_census_d_word_is_the_full_strip(type_str, levi_mode):
    # The census spells d over its leading nodes and looks the rest up; the
    # word must be the one the full strip of d(rho) gives.
    spec = spec_of(type_str)
    rho = (1,) * spec.rank
    summary = census.start_census(spec, levi_mode)
    for rec in census.census_records(spec, summary):
        w_rho = weyl.apply_word(spec, rec.w_word, rho)
        w0_word = longest_parabolic(spec, rec.levi).word
        d_rho = weyl.apply_word(spec, w0_word, w_rho)
        assert rec.d_word == chamber_word(spec, d_rho), rec
    assert summary.pair_count > 0


@pytest.mark.parametrize(
    "type_str", ["A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2"]
)
def test_longest_parabolic_carries_its_canonical_word(type_str):
    spec = spec_of(type_str)
    n = spec.rank
    lay = weyl._layout(spec)
    weyl._w0.cache_clear()
    for k in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), k):
            w0 = longest_parabolic(spec, subset)
            assert weyl._w0(lay, subset)[0] == len(w0.word)
            assert w0.word == chamber_word(spec, w0.rho_image)
            assert w0.rho_image == longest_parabolic_ascent(
                spec.cartan_matrix, subset
            )


def _act(lay, action, p):
    # The linear action as its docstring states it, every field read from p.
    q = p
    for s, b in action:
        q -= (((p >> s) & lay.field) - lay.bias) * b
    return q


@pytest.mark.parametrize(
    "type_str", ["A4", "B4", "D4", "F4", "G2", "E6", "E8", "B50"]
)
def test_w0_action_is_the_word_of_w0(type_str):
    # Every element's w(rho) on the small types; rho, w0(rho) and a seeded
    # sample on E6 and E8; B50, packed into 400 bits, on a few subsets.
    spec = spec_of(type_str)
    lay = weyl._layout(spec)
    n = spec.rank
    nodes = range(1, n + 1)
    rng = random.Random(26)
    if len(spec.positive_roots) <= 24:
        points = [w.packed for w in enumerate_group(spec)]
    else:
        w0 = longest_parabolic(spec, nodes).packed
        sample = [from_word(spec, random_word(spec, rng)) for _ in range(40)]
        points = [lay.rho, w0, *(w.packed for w in sample)]
    if n <= 8:
        subsets = [
            subset
            for k in range(n + 1)
            for subset in itertools.combinations(nodes, k)
        ]
    else:
        subsets = [(), tuple(nodes), (1,), (n,), (n - 1, n), tuple(range(1, n, 2))]
        subsets += [tuple(sorted(rng.sample(nodes, k))) for k in (3, 10, 25)]
    for subset in subsets:
        # The list walk of -rho over I spells w_0(I).
        word = tuple(chamber_walk(spec, [-1] * n, [i in subset for i in nodes]))
        length, action = weyl._w0(lay, subset)
        assert length == len(word)
        assert len(action) == len(subset)
        for p in points:
            assert _act(lay, action, p) == lay.apply(word, p), (subset, p)
            assert lay.act(action, p) == _act(lay, action, p), (subset, p)


@pytest.mark.parametrize("type_str", ["B3", "G2"])
def test_record_line_is_json_dumps_and_round_trips(type_str):
    spec = spec_of(type_str)
    records = []
    run_census(spec, records_out=records)
    assert records
    for rec in records:
        line = rec.to_json_line()
        assert line == json.dumps(
            {
                "type": str(rec.cartan_type),
                "w": list(rec.w_word),
                "len": rec.length,
                "levi": list(rec.levi),
                "d": list(rec.d_word),
                "spherical": rec.spherical,
            }
        )
        assert CensusRecord.from_json_line(spec, line) == rec
