import io
import json

import pytest

from levispherical import (
    CapExceeded,
    CensusRecord,
    InconsistencyError,
    census_records,
    classify,
    cross_check,
    enumerate_group,
    from_word,
    left_descents,
    run_census,
    start_census,
)
from levispherical import Witness, census
from levispherical.cli import main
from conftest import spec_of
from oracles import (
    a_type_census,
    a_type_full_descent_failures,
    census_oracle,
    mf_at_rho_census,
    sym_eval_word,
    sym_patterns,
)


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


@pytest.mark.parametrize(
    "type_str",
    [
        "A1", "A2", "A3", "A4", "A7", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2",
        "F4", "E6",
    ],
)
def test_full_descent_summary_matches_closed_forms(type_str):
    spec = spec_of(type_str)
    summary = run_census(spec, levi_mode="full-descent-only").to_json_dict()
    oracle = census_oracle(spec, "full-descent-only")
    for key in ("group_order", "pair_count", "spherical_count", "toric_count"):
        assert summary[key] == oracle[key]
    assert summary["by_length"] == oracle["by_length"]
    if type_str == "E6":
        assert (oracle["spherical_count"], oracle["toric_count"]) == (1897, 242)


@pytest.mark.parametrize(
    "type_str, spherical, toric", [("E7", 7384, 634), ("E8", 28806, 1660)]
)
def test_full_descent_closed_forms_of_e7_and_e8(type_str, spherical, toric):
    oracle = census_oracle(spec_of(type_str), "full-descent-only")
    assert (oracle["spherical_count"], oracle["toric_count"]) == (spherical, toric)
    assert oracle["pair_count"] == oracle["group_order"]


def test_type_a_full_descents_are_spherical_iff_pattern_avoiding():
    # Gao-Hodges-Yong: (w, D_L(w)) is spherical in type A iff w avoids the
    # non-spherical permutations of S5, none of S4 being non-spherical.
    patterns = a_type_full_descent_failures(4)
    assert len(patterns) == 21
    assert not a_type_full_descent_failures(3)
    for n, count in ((4, 99), (5, 400), (6, 1590)):
        records = []
        summary = run_census(
            spec_of(f"A{n}"), levi_mode="full-descent-only", records_out=records
        )
        assert summary.spherical_count == count
        for rec in records:
            avoids = sym_patterns(sym_eval_word(n, rec.w_word), 5).isdisjoint(patterns)
            assert rec.spherical == avoids, rec


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
    elements = census._elements
    yielded = []

    def counting(spec, cap):
        for w in elements(spec, cap):
            yielded.append(w)
            yield w

    class Sink:
        first_write_at = None

        def write(self, text):
            if self.first_write_at is None:
                self.first_write_at = len(yielded)

    monkeypatch.setattr(census, "_elements", counting)
    sink = Sink()
    summary = run_census(spec_of("D4"), sink=sink)
    assert len(yielded) == summary.group_order == 192
    assert sink.first_write_at is not None and sink.first_write_at < 192


def test_census_cross_check_reads_the_live_stream(monkeypatch, capsys):
    # census --battery checks each record as it is written: the first check
    # runs before the enumeration has yielded the whole group, so no list of
    # records is held for the cross-check.
    elements = census._elements
    yielded = []
    checked_at = []

    def counting(spec, cap):
        for w in elements(spec, cap):
            yielded.append(w)
            yield w

    def noting(check):
        def wrapped(*args, **kwargs):
            checked_at.append(len(yielded))
            return check(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(census, "_elements", counting)
    # One straightener per sampled record serves its battery or its search.
    monkeypatch.setattr(
        census, "_levi_straightener", noting(census._levi_straightener)
    )
    assert main(["census", "--type", "D4", "--battery", "rho"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(yielded) == 192
    assert report["sampled"] == len(checked_at) == 865
    assert checked_at[0] < 192


def test_census_inconsistency_stops_the_stream(monkeypatch, capsys):
    # A failed check ends the census at its record: stdout holds the records
    # written so far and no summary, and the exit code is 1.  The battery
    # verdict reads a repeat of multiplicity 2 for every record.
    def failing(lay, mults):
        return (1, 1), 2

    monkeypatch.setattr(census, "_first_repeat", failing)
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


@pytest.mark.parametrize("cap", [0, -1, True, 1.5])
def test_cap_below_one_is_not_a_budget(cap):
    with pytest.raises(ValueError, match="census cap .* is not a positive integer"):
        start_census(spec_of("A2"), "all-subsets", cap)


def test_cap_refusals_name_the_order_and_the_cap():
    # The census refuses in start_census, the enumeration before its first
    # element; both from the group's order, with one message shape.
    b2 = spec_of("B2")
    head = "group of type B2 has order 8, over the cap 7; raise the cap to "
    with pytest.raises(CapExceeded) as exc:
        start_census(b2, "full-descent-only", 7)
    assert str(exc.value) == head + "run this census"
    with pytest.raises(CapExceeded) as exc:
        next(enumerate_group(b2, 7))
    assert str(exc.value) == head + "enumerate it"
    assert start_census(b2, "full-descent-only", 8).group_order == 8


@pytest.mark.parametrize("cap", [-1, 0, True, False, 1.5, "8", None])
def test_enumeration_refuses_a_cap_that_is_not_a_positive_int(cap):
    # Bad input, not a spent budget: the same rule as start_census.
    b2 = spec_of("B2")
    with pytest.raises(ValueError, match="enumeration cap .* is not a positive integer"):
        next(enumerate_group(b2, cap))
    with pytest.raises(ValueError, match="census cap .* is not a positive integer"):
        start_census(b2, "all-subsets", cap)
    assert len(list(enumerate_group(b2, 8))) == 8


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


GOOD_RECORD = {"type": "A2", "w": [1, 2], "len": 2, "levi": [1], "d": [2],
               "spherical": True}


@pytest.mark.parametrize(
    "field, value",
    [
        ("w", "12"),
        ("w", [1, True]),
        ("w", [1, 2.0]),
        ("levi", None),
        ("levi", {"1": 1}),
        ("d", [[2]]),
        ("len", 3),
        ("len", "2"),
        ("len", None),
        ("spherical", 1),
        ("spherical", "true"),
        ("spherical", None),
    ],
)
def test_record_parse_rejects_malformed_fields(field, value):
    spec = spec_of("A2")
    assert CensusRecord.from_json_line(spec, json.dumps(GOOD_RECORD)).w_word == (1, 2)
    obj = dict(GOOD_RECORD)
    if value is None:
        del obj[field]
    else:
        obj[field] = value
    with pytest.raises(ValueError, match=f"field '{field}'"):
        CensusRecord.from_json_line(spec, json.dumps(obj))


def test_record_parse_rejects_bool_length_and_non_objects():
    spec = spec_of("A2")
    line = json.dumps(dict(GOOD_RECORD, w=[1], len=True))
    with pytest.raises(ValueError, match="field 'len'"):
        CensusRecord.from_json_line(spec, line)
    with pytest.raises(ValueError, match="not a JSON object"):
        CensusRecord.from_json_line(spec, "[1, 2]")


E6_RECORD = {"type": "E6", "w": [2, 4, 3, 1], "len": 4, "levi": [2],
             "d": [4, 3, 1], "spherical": True}


@pytest.mark.parametrize("field", ["w", "levi", "d"])
@pytest.mark.parametrize("letter", [0, 7, -1])
def test_record_parse_rejects_letters_outside_the_nodes(field, letter):
    spec = spec_of("E6")
    assert CensusRecord.from_json_line(spec, json.dumps(E6_RECORD)).d_word == (4, 3, 1)
    obj = dict(E6_RECORD)
    obj[field] = obj[field][:-1] + [letter]
    with pytest.raises(ValueError, match=f"field '{field}' holds a letter outside"):
        CensusRecord.from_json_line(spec, json.dumps(obj))


def json_fields(rec):
    return {
        "type": str(rec.cartan_type),
        "w": list(rec.w_word),
        "len": rec.length,
        "levi": list(rec.levi),
        "d": list(rec.d_word),
        "spherical": rec.spherical,
    }


A12_RECORDS = [
    # s_10 s_11 s_12 s_1: a Coxeter element with two-digit letters.
    ((10, 11, 12, 1), (10,), (11, 12, 1), True),
    ((12, 11, 10, 12), (11, 12), (10, 12), False),
    ((), (), (), True),
    ((12,), (12,), (), True),
]


@pytest.mark.parametrize("w, levi, d, spherical", A12_RECORDS)
def test_record_line_is_json_dumps_for_two_digit_nodes(w, levi, d, spherical):
    spec = spec_of("A12")
    rec = CensusRecord(spec.cartan_type, w, len(w), levi, d, spherical)
    line = rec.to_json_line()
    assert line == json.dumps(json_fields(rec))
    assert CensusRecord.from_json_line(spec, line) == rec


@pytest.mark.parametrize("field", ["w_word", "levi", "d_word"])
@pytest.mark.parametrize("letter", [0, -1, 13, 100])
def test_record_line_rejects_letters_outside_the_nodes(field, letter):
    spec = spec_of("A12")
    good = CensusRecord(spec.cartan_type, (10, 11, 12), 3, (10,), (11, 12), True)
    bad = good._replace(**{field: getattr(good, field) + (letter,)})
    name = {"w_word": "w", "levi": "levi", "d_word": "d"}[field]
    # A list indexed by the letter would print node 12's text for -1.
    with pytest.raises(ValueError, match=f"field '{name}' holds a letter outside"):
        bad.to_json_line()


@pytest.mark.parametrize(
    "field, value",
    [
        ("length", 5),
        ("length", True),
        ("w_word", (True, 2)),
        ("w_word", (1.0, 2)),
        ("w_word", "12"),
        ("levi", (True,)),
        ("d_word", (2.0,)),
        ("spherical", 1),
        ("spherical", "true"),
        ("spherical", None),
    ],
)
def test_record_line_refuses_what_the_parse_refuses(field, value):
    # One field check serves both directions: a record is printed only if
    # its line would parse back, so a bool or float letter is never "1".
    spec = spec_of("A2")
    good = CensusRecord(spec.cartan_type, (1, 2), 2, (1,), (2,), True)
    bad = good._replace(**{field: value})
    name = {"w_word": "w", "length": "len", "levi": "levi", "d_word": "d",
            "spherical": "spherical"}[field]
    with pytest.raises(ValueError, match=f"field '{name}'"):
        bad.to_json_line()
    with pytest.raises(ValueError, match=f"field '{name}'"):
        CensusRecord.from_json_line(spec, json.dumps(json_fields(bad)))


def test_record_is_an_immutable_hashable_named_tuple():
    spec = spec_of("A3")
    rec = CensusRecord(spec.cartan_type, (1, 2), 2, (1,), (2,), True)
    keys = list(json.loads(rec.to_json_line()))
    assert keys == ["type", "w", "len", "levi", "d", "spherical"]
    assert len(CensusRecord._fields) == len(keys)
    assert dict(zip(CensusRecord._fields, keys)) == {
        "cartan_type": "type", "w_word": "w", "length": "len", "levi": "levi",
        "d_word": "d", "spherical": "spherical",
    }
    for name in CensusRecord._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    twin = CensusRecord.from_json_line(spec, rec.to_json_line())
    assert twin == rec and twin is not rec
    assert hash(twin) == hash(rec)
    assert len({rec, twin}) == 1


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
    # An empty battery would pass every spherical record unchecked, so it is
    # refused before the first record is read.
    spec = spec_of("A2")
    records = []
    run_census(spec, records_out=records)

    def unread():
        raise AssertionError("a record was read")
        yield

    for stream in (records, unread()):
        with pytest.raises(ValueError, match="^A2 battery names no weight$"):
            cross_check(spec, stream, [])


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


@pytest.mark.parametrize("battery", [[5], 5, None, [(1, 1), 3]])
def test_cross_check_refuses_a_battery_that_is_not_a_list_of_weights(battery):
    spec = spec_of("A2")
    records = list(census_records(spec, start_census(spec)))
    with pytest.raises(ValueError, match=r"A2 battery .* is not a list of weights"):
        cross_check(spec, records, battery)


@pytest.mark.parametrize("battery", ["rho", b"11", ["11"], [(1, 1), b"11"]])
def test_cross_check_refuses_text_as_a_battery_or_a_weight(battery):
    # A str or bytes iterates as its characters or byte values, which read
    # as weights: b"11" would be the dominant weight (49, 49).
    spec = spec_of("A2")
    with pytest.raises(ValueError, match=r"^A2 battery .* is not a list of weights$"):
        cross_check(spec, [], battery)


def test_cross_check_that_samples_no_record_refuses():
    # A cross-check that samples nothing has checked nothing: no report.
    spec = spec_of("A2")
    records = list(census_records(spec, start_census(spec)))
    for stream, rate, seen in ((records, 1e-9, 13), ([], 1.0, 0), (iter(()), None, 0)):
        with pytest.raises(ValueError) as exc:
            cross_check(spec, stream, [(1, 1)], sample=rate)
        rate = 1.0 if rate is None else rate
        assert str(exc.value) == (
            f"cross-check sampled none of {seen} records at rate {rate}; "
            "nothing was checked"
        )


def test_cross_check_refuses_records_of_another_type(monkeypatch):
    # B4 and C4 records have the same shape, so only the type tells them
    # apart; the check must come before any B4 character is expanded.
    def no_character_work(*args):
        raise AssertionError("character work on a record of another type")

    monkeypatch.setattr(census, "_levi_straightener", no_character_work)
    b4, c4 = spec_of("B4"), spec_of("C4")
    records = census_records(c4, start_census(c4))
    with pytest.raises(ValueError, match="record type 'C4' does not match B4"):
        cross_check(b4, records, [(1, 1, 1, 1)], sample=0.05)


@pytest.mark.parametrize("type_str, pairs", [("A3", 75), ("A4", 541), ("D4", 865)])
def test_mf_at_rho_is_sphericality_on_small_simply_laced_types(type_str, pairs):
    # An observation, not a theorem: on these complete all-subsets censuses
    # is_multiplicity_free at lambda = rho decides every pair (a spherical
    # pair that is not multiplicity-free raises in mf_at_rho_census).
    assert mf_at_rho_census(spec_of(type_str)) == (pairs, [])


# The non-spherical pairs (w, I) that are multiplicity-free at rho, each with
# the first witness witness_search finds.
MF_AT_RHO_NOT_SPHERICAL = {
    "G2": [((1, 2, 1, 2), (1,), Witness((0, 2), (3, -1), 2))],
    "B2": [((1, 2, 1, 2), (2,), Witness((1, 2), (-1, 2), 2))],
    "B3": [
        ((2, 3, 2, 3), (3,), Witness((0, 1, 2), (2, -1, 2), 2)),
        ((1, 2, 3, 2, 3), (3,), Witness((0, 1, 2), (2, -1, 2), 2)),
        ((1, 2, 3, 2, 3), (1, 3), Witness((0, 1, 2), (2, -1, 2), 2)),
        ((2, 3, 2, 1, 3), (3,), Witness((0, 1, 2), (2, -1, 2), 2)),
        ((1, 2, 3, 2, 1, 3), (1, 3), Witness((0, 1, 2), (2, -1, 2), 2)),
        ((2, 1, 3, 2, 1, 3, 2, 3), (2, 3), Witness((0, 1, 2), (-2, 1, 2), 2)),
    ],
    "B4": [
        ((3, 4, 3, 4), (4,), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 3, 4, 3, 4), (4,), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 3, 4, 3, 4), (1, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((3, 4, 3, 2, 4), (4,), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((2, 3, 4, 3, 4), (4,), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((2, 3, 4, 3, 4), (2, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 2, 3, 4, 3, 4), (4,), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 2, 3, 4, 3, 4), (1, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 3, 4, 3, 2, 4), (4,), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 3, 4, 3, 2, 4), (1, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((3, 4, 3, 2, 1, 4), (4,), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((2, 1, 3, 4, 3, 4), (4,), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((2, 1, 3, 4, 3, 4), (2, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((2, 3, 4, 3, 2, 4), (2, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 2, 1, 3, 4, 3, 4), (1, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 2, 1, 3, 4, 3, 4), (2, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 2, 1, 3, 4, 3, 4), (1, 2, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 3, 4, 3, 2, 1, 4), (1, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((2, 1, 3, 4, 3, 2, 4), (2, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((2, 3, 4, 3, 2, 1, 4), (2, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((1, 2, 1, 3, 4, 3, 2, 4), (1, 2, 4), Witness((0, 0, 1, 2), (0, 2, -1, 2), 2)),
        ((3, 2, 4, 3, 2, 4, 3, 4), (3, 4), Witness((0, 0, 1, 2), (2, -2, 1, 2), 2)),
        (
            (1, 2, 1, 3, 4, 3, 2, 1, 4),
            (1, 2, 4),
            Witness((0, 0, 1, 2), (0, 2, -1, 2), 2),
        ),
        ((1, 3, 2, 4, 3, 2, 4, 3, 4), (3, 4), Witness((0, 0, 1, 2), (2, -2, 1, 2), 2)),
        (
            (1, 3, 2, 4, 3, 2, 4, 3, 4),
            (1, 3, 4),
            Witness((0, 0, 1, 2), (2, -2, 1, 2), 2),
        ),
        ((3, 2, 4, 3, 2, 1, 4, 3, 4), (3, 4), Witness((0, 0, 1, 2), (2, -2, 1, 2), 2)),
        (
            (1, 3, 2, 4, 3, 2, 1, 4, 3, 4),
            (1, 3, 4),
            Witness((0, 0, 1, 2), (2, -2, 1, 2), 2),
        ),
        (
            (2, 3, 2, 1, 4, 3, 2, 1, 4, 3, 2, 4, 3, 4),
            (2, 3, 4),
            Witness((0, 0, 1, 2), (-2, 0, 1, 2), 2),
        ),
    ],
    "C3": [
        ((2, 3, 2, 3), (2,), Witness((0, 2, 1), (2, 2, -1), 2)),
        ((1, 2, 1, 3, 2, 3), (1, 2), Witness((0, 2, 1), (2, 2, -1), 2)),
    ],
}


@pytest.mark.parametrize("type_str", sorted(MF_AT_RHO_NOT_SPHERICAL))
def test_non_spherical_pairs_mf_at_rho_are_pinned(type_str):
    _, found = mf_at_rho_census(spec_of(type_str))
    assert found == MF_AT_RHO_NOT_SPHERICAL[type_str]


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


@pytest.mark.parametrize(
    "type_str, levi_mode",
    [
        (t, m)
        for t in ("A1", "G2", "B3", "C3", "F4", "D5")
        for m in census.LEVI_MODES
    ]
    + [("E6", "full-descent-only")],
)
def test_census_lines_are_the_records_own_lines(monkeypatch, type_str, levi_mode):
    # The census formats each line from its text tables, to_json_line from
    # the record: both through the one layout.  d's text joins the prefix
    # the kernel walks with the text stored beside the tail's word; on F4
    # and D5 all subsets every shape of that join occurs.
    spec = spec_of(type_str)
    split = census._split
    shapes = set()

    def noting(*args):
        y, tail = split(*args)
        shapes.add((bool(y), bool(tail[0])))
        return y, tail

    monkeypatch.setattr(census, "_split", noting)

    class Sink(list):
        write = list.append

    sink = Sink()
    summary = start_census(spec, levi_mode)
    count = 0
    for rec in census_records(spec, summary, sink):
        count += 1
        assert len(sink) == count
        assert sink[-1] == rec.to_json_line() + "\n"
    assert count == summary.pair_count > 0
    if type_str in ("F4", "D5") and levi_mode == "all-subsets":
        assert shapes == {(False, True), (True, False), (True, True), (False, False)}


@pytest.mark.parametrize("type_str", ["A1", "G2", "F4", "E6"])
@pytest.mark.parametrize("field", ["w_word", "levi", "d_word"])
def test_hand_built_record_with_a_letter_past_the_nodes_names_its_field(
    type_str, field
):
    spec = spec_of(type_str)
    good = CensusRecord(spec.cartan_type, (1,), 1, (1,), (), True)
    name = {"w_word": "w", "levi": "levi", "d_word": "d"}[field]
    for letter in (0, spec.rank + 1):
        bad = good._replace(**{field: getattr(good, field) + (letter,)})
        with pytest.raises(ValueError, match=f"field '{name}' holds a letter outside"):
            bad.to_json_line()


def test_census_refuses_a_summary_of_another_type():
    # An A3 stream would fill a B3 summary; an A2 summary is too small for
    # B3, which must not read as a spent budget (CapExceeded).
    a3, b3 = spec_of("A3"), spec_of("B3")
    with pytest.raises(ValueError, match="summary of type B3 does not match A3"):
        next(census_records(a3, start_census(b3)))
    with pytest.raises(ValueError, match="summary of type A2 does not match B3"):
        next(census_records(b3, start_census(spec_of("A2"))))


def test_census_refuses_a_summary_it_has_filled():
    a2 = spec_of("A2")
    summary = start_census(a2)
    records = list(census_records(a2, summary))
    assert summary.to_json_dict()["by_length"]["0"]["elements"] == 1
    assert sum(per["elements"] for per in summary.by_length.values()) == 6
    with pytest.raises(ValueError, match="already holds counts"):
        next(census_records(a2, summary))
    # The refusal touched nothing.
    assert summary.pair_count == len(records)
    assert sum(per["elements"] for per in summary.by_length.values()) == 6


@pytest.mark.parametrize(
    "name, value, match",
    [
        ("levi_mode", "everything", "levi_mode must be one of"),
        ("levi_mode", "", "levi_mode must be one of"),
        ("group_order", 5, "order of A2 as 5, not 6"),
        ("group_order", 7, "order of A2 as 7, not 6"),
        ("pair_count", 1, "already holds counts"),
        ("spherical_count", 1, "already holds counts"),
        ("toric_count", 1, "already holds counts"),
        ("by_length", {0: {"elements": 1, "pairs": 1, "spherical": 1}}, "already holds"),
    ],
)
def test_census_refuses_a_summary_it_cannot_fill(name, value, match):
    a2 = spec_of("A2")
    summary = start_census(a2)
    setattr(summary, name, value)
    sink = io.StringIO()
    with pytest.raises(ValueError, match=match):
        next(census_records(a2, summary, sink))
    assert sink.getvalue() == ""
