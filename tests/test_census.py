import io
import json

import pytest

from levispherical import (
    CapExceeded,
    CensusRecord,
    InconsistencyError,
    classify,
    cross_check,
    from_word,
    left_descents,
    run_census,
)
from levispherical import MultiplicityCheck, census
from levispherical.cli import main
from conftest import spec_of
from oracles import a_type_census, census_oracle, sym_eval_word


def census_lines(type_str, **kw):
    sink = io.StringIO()
    summary = run_census(spec_of(type_str), sink=sink, **kw)
    return sink.getvalue(), summary


@pytest.mark.parametrize(
    "type_str",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4"],
)
def test_census_summary_matches_closed_forms(type_str):
    spec = spec_of(type_str)
    summary = run_census(spec).to_json_dict()
    oracle = census_oracle(spec)
    for key in ("group_order", "pair_count", "spherical_count", "toric_count"):
        assert summary[key] == oracle[key]
    assert summary["by_length"] == oracle["by_length"]


def test_a2_against_brute_force_fixture():
    spec = spec_of("A2")
    records = []
    summary = run_census(spec, records_out=records)
    oracle = a_type_census(2)
    assert summary.pair_count == len(oracle["pairs"]) == 13
    seen = {}
    for rec in records:
        perm = sym_eval_word(2, rec.w_word)
        key = (perm, rec.levi)
        assert key not in seen
        seen[key] = rec.spherical
    assert seen == oracle["pairs"]
    non_spherical = [k for k, ok in oracle["pairs"].items() if not ok]
    assert len(non_spherical) == 1
    perm, levi = non_spherical[0]
    assert perm == (3, 2, 1) and levi == ()


def test_a1_census_every_pair_spherical():
    _, summary = census_lines("A1")
    assert summary.group_order == 2
    assert summary.pair_count == 3  # (e, {}), (s1, {}), (s1, {1})
    assert summary.spherical_count == 3
    assert summary.toric_count == 2


@pytest.mark.parametrize(
    "type_str,pairs,spherical,toric",
    [("A2", 13, 12, 5), ("B2", 17, 12, 5), ("G2", 25, 12, 5)],
)
def test_rank_two_census_totals(type_str, pairs, spherical, toric):
    _, summary = census_lines(type_str)
    assert summary.pair_count == pairs
    assert summary.spherical_count == spherical
    assert summary.toric_count == toric


def test_census_is_byte_deterministic():
    first, _ = census_lines("B3")
    second, _ = census_lines("B3")
    assert first == second
    assert first.count("\n") == len(first.splitlines())


def test_census_streams_records_during_enumeration(monkeypatch):
    # The first record reaches the sink before the enumeration has yielded
    # the whole group, so a census holds no list of elements.
    enumerate_group = census.enumerate_group
    yielded = []

    def counting(spec, cap):
        for w in enumerate_group(spec, cap):
            yielded.append(w)
            yield w

    class Sink:
        first_write_at = None

        def write(self, text):
            if self.first_write_at is None:
                self.first_write_at = len(yielded)

    monkeypatch.setattr(census, "enumerate_group", counting)
    sink = Sink()
    summary = run_census(spec_of("D4"), sink=sink)
    assert len(yielded) == summary.group_order == 192
    assert sink.first_write_at is not None and sink.first_write_at < 192


def test_census_cross_check_reads_the_live_stream(monkeypatch, capsys):
    # census --battery checks each record as it is written: the first check
    # runs before the enumeration has yielded the whole group, so no list of
    # records is held for the cross-check.
    enumerate_group = census.enumerate_group
    yielded = []
    checked_at = []

    def counting(spec, cap):
        for w in enumerate_group(spec, cap):
            yielded.append(w)
            yield w

    def noting(check):
        def wrapped(*args, **kwargs):
            checked_at.append(len(yielded))
            return check(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(census, "enumerate_group", counting)
    for name in ("is_multiplicity_free", "witness_search"):
        monkeypatch.setattr(census, name, noting(getattr(census, name)))
    assert main(["census", "--type", "D4", "--battery", "rho"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(yielded) == 192
    assert report["sampled"] == len(checked_at) == 865
    assert checked_at[0] < 192


def test_census_inconsistency_stops_the_stream(monkeypatch, capsys):
    # A failed check ends the census at its record: stdout holds the records
    # written so far and no summary, and the exit code is 1.
    def failing(spec, lam, w, levi):
        return MultiplicityCheck(False, tuple(lam), 2)

    monkeypatch.setattr(census, "is_multiplicity_free", failing)
    code = main(["census", "--type", "A2", "--battery", "rho"])
    captured = capsys.readouterr()
    assert code == 1
    assert "inconsistency" in captured.err
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert 0 < len(lines) < 13
    assert all(set(line) == {"type", "w", "len", "levi", "d", "spherical"}
               for line in lines)


def test_census_record_stream_is_consistent():
    spec = spec_of("B3")
    records = []
    summary = run_census(spec, records_out=records)
    assert summary.pair_count == len(records)
    assert summary.spherical_count == sum(r.spherical for r in records)
    toric = [r for r in records if r.levi == ()]
    assert summary.group_order == len(toric)
    assert summary.toric_count == sum(r.spherical for r in toric)
    for rec in records:
        # levi is admissible and d matches an independent reclassification
        w = from_word(spec, rec.w_word)
        assert set(rec.levi) <= left_descents(spec, w)
        assert rec.length == len(rec.w_word)
        if rec.levi == ():
            assert rec.d_word == rec.w_word
            assert rec.spherical == (len(set(rec.w_word)) == len(rec.w_word))


@pytest.mark.parametrize("levi_mode", census.LEVI_MODES)
@pytest.mark.parametrize("type_str", ["G2", "A4", "B3", "C3", "D4", "F4"])
def test_census_records_agree_with_classify(type_str, levi_mode):
    # The census shares classify's kernel but not its wrapper: each record
    # must be classify's verdict on a w rebuilt from the record's word.
    spec = spec_of(type_str)
    records = []
    run_census(spec, levi_mode=levi_mode, records_out=records)
    assert records
    for rec in records:
        res = classify(spec, from_word(spec, rec.w_word), rec.levi)
        assert (rec.w_word, rec.length, rec.levi, rec.d_word, rec.spherical) == (
            res.w_word, res.len_w, res.levi, res.d_word, res.spherical
        )


def test_census_length_histogram():
    spec = spec_of("B3")
    _, summary = census_lines("B3")
    per = summary.by_length
    assert sum(v["elements"] for v in per.values()) == summary.group_order
    assert sum(v["pairs"] for v in per.values()) == summary.pair_count
    assert sum(v["spherical"] for v in per.values()) == summary.spherical_count
    assert sorted(per) == list(range(10))  # lengths 0..9 in B3
    assert per[0] == {"elements": 1, "pairs": 1, "spherical": 1}
    dct = summary.to_json_dict()
    assert list(dct["by_length"]) == [str(k) for k in range(10)]


def test_full_descent_only_mode():
    spec = spec_of("B3")
    records = []
    summary = run_census(spec, levi_mode="full-descent-only",
                         records_out=records)
    assert summary.pair_count == summary.group_order == 48
    for rec in records:
        w = from_word(spec, rec.w_word)
        assert rec.levi == tuple(sorted(left_descents(spec, w)))


def test_invalid_levi_mode():
    with pytest.raises(ValueError, match="levi_mode"):
        run_census(spec_of("A2"), levi_mode="everything")


def test_cap_refusal_emits_nothing():
    sink = io.StringIO()
    with pytest.raises(CapExceeded):
        run_census(spec_of("B2"), cap=5, sink=sink)
    assert sink.getvalue() == ""


def test_record_json_roundtrip():
    spec = spec_of("F4")
    records = []
    run_census(spec_of("A2"), records_out=records)
    rec = records[-1]
    line = rec.to_json_line()
    assert list(json.loads(line)) == ["type", "w", "len", "levi", "d",
                                      "spherical"]
    again = CensusRecord.from_json_line(spec_of("A2"), line)
    assert again == rec
    with pytest.raises(ValueError, match="does not match"):
        CensusRecord.from_json_line(spec, line)


def test_cross_check_a2_full_battery():
    spec = spec_of("A2")
    records = []
    run_census(spec, records_out=records)
    report = cross_check(spec, records, [(1, 0), (0, 1), (1, 1)])
    assert report.records_seen == 13
    assert report.sampled == 13  # group of order 6: full sampling
    assert report.spherical_checked == 12
    assert report.witness_found == 1  # (w0, {}): adjoint zero weight twice
    assert report.witness_inconclusive == 0


def test_cross_check_empty_battery():
    spec = spec_of("A2")
    records = []
    run_census(spec, records_out=records)
    report = cross_check(spec, records, [])
    assert report.battery_size == 0
    assert report.spherical_checked == 12


def test_cross_check_flags_wrong_spherical_claim():
    spec = spec_of("D4")
    lie = CensusRecord(
        cartan_type=spec.cartan_type,
        w_word=(3, 2, 3, 4, 2, 1, 2),
        length=7,
        levi=(2, 3),
        d_word=(1, 4, 2, 1),
        spherical=True,
    )
    with pytest.raises(InconsistencyError) as exc:
        cross_check(spec, [lie], [(1, 1, 0, 0)])
    err = exc.value
    assert err.record is lie
    assert err.lam == (1, 1, 0, 0)
    assert err.mu == (0, 1, 1, -1)
    assert err.multiplicity == 2
    assert "multiplicity" in str(err)


def test_cross_check_battery_validation():
    spec = spec_of("A2")
    with pytest.raises(ValueError, match="not dominant"):
        cross_check(spec, [], [(1, -1)])
    with pytest.raises(ValueError, match="not dominant"):
        cross_check(spec, [], [(1, 0, 0)])
    # Checked before the first record is read, not when a record is sampled.
    for lam in [(True, 0), (0.5, 1)]:
        with pytest.raises(ValueError, match="not dominant"):
            cross_check(spec, [], [(1, 1), lam])


def test_cross_check_sampling_is_seeded():
    spec = spec_of("B3")
    records = []
    run_census(spec, records_out=records)
    one = cross_check(spec, records, [(1, 0, 0)], sample=0.3)
    two = cross_check(spec, records, [(1, 0, 0)], sample=0.3)
    assert one.to_json_dict() == two.to_json_dict()
    assert one.records_seen == len(records)
    assert 0 < one.sampled < len(records)
    with pytest.raises(ValueError, match="sample rate"):
        cross_check(spec, records, [(1, 0, 0)], sample=0.0)
