"""Canonical words carried through enumeration, and the census record text."""

import json

import pytest

from levispherical import enumerate_group, run_census, weyl
from levispherical.census import CensusRecord
from conftest import spec_of


@pytest.mark.parametrize("type_str", ["A4", "B4", "D4", "F4", "G2", "E6"])
def test_enumeration_carries_the_canonical_word(type_str):
    spec = spec_of(type_str)
    for w in enumerate_group(spec):
        assert w.known_word is not None
        assert w.known_word == weyl._word(spec, w.rho_image)


def test_census_strips_only_d_and_each_w0_once(monkeypatch):
    spec = spec_of("F4")
    strip = weyl._word
    calls = 0

    def counting(spec, wt):
        nonlocal calls
        calls += 1
        return strip(spec, wt)

    monkeypatch.setattr(weyl, "_word", counting)
    weyl._longest_parabolic.cache_clear()
    summary = run_census(spec)
    assert summary.pair_count == 5089
    # One strip per record (its d) plus one per longest parabolic w0(I);
    # the lower bound fails if the census strips d without weyl._word.
    assert summary.pair_count <= calls <= summary.pair_count + 2**spec.rank


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
