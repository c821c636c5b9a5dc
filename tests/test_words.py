"""Canonical words carried through enumeration, and the census record text."""

import itertools
import json

import pytest

from levispherical import census, enumerate_group, longest_parabolic, run_census, weyl
from levispherical.census import CensusRecord
from conftest import spec_of
from oracles import longest_parabolic_ascent


@pytest.mark.parametrize("type_str", ["A4", "B4", "D4", "F4", "G2", "E6"])
def test_enumeration_carries_the_canonical_word(type_str):
    spec = spec_of(type_str)
    for w in enumerate_group(spec):
        assert w.known_word is not None
        assert w.known_word == weyl._word(spec, w.rho_image)


def test_census_strips_only_d_and_each_w0_once(monkeypatch):
    spec = spec_of("F4")
    calls = {"_split": 0, "_word": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(census, "_split")
    counting(weyl, "_word")
    weyl._longest_parabolic.cache_clear()
    summary = run_census(spec)
    assert summary.pair_count == 5089
    # The kernel derives d once per record.  It walks d(rho) over the leading
    # nodes and looks the rest of the word up, so no element is stripped
    # whole: not w, not d, and not w0(I), which carries the word of the walk
    # that built it.
    assert calls == {"_split": summary.pair_count, "_word": 0}


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
        assert rec.d_word == weyl._word(spec, d_rho), rec
    assert summary.pair_count > 0


@pytest.mark.parametrize(
    "type_str", ["A4", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2"]
)
def test_longest_parabolic_carries_its_canonical_word(type_str):
    spec = spec_of(type_str)
    n = spec.rank
    weyl._longest_parabolic.cache_clear()
    for k in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), k):
            w0 = longest_parabolic(spec, subset)
            assert w0.known_word == weyl._word(spec, w0.rho_image)
            assert w0.rho_image == longest_parabolic_ascent(
                spec.cartan_matrix, subset
            )


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
