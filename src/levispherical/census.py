"""Whole-group sphericality censuses with deterministic JSONL output.

A census classifies (w, I) pairs for every element w of a Weyl group:
either every subset I of the left descent set (mode "all-subsets") or just
I = D_L(w) (mode "full-descent-only").  Records stream out as JSON lines

    {"type": "F4", "w": [...], "len": 13, "levi": [...], "d": [...],
     "spherical": true}

in a fixed order: elements by length, then in increasing lexicographic
order of w(rho) in fundamental-weight coordinates, then subsets of the
descent set in binary-counting order.  Reruns are byte-identical.

census_records is the one stream of records: the JSONL sink, a caller's
list and the cross-check all read it as it is produced; fill_census runs
the same census and builds no record.  cross_check validates records
against explicit character computations: a spherical record must be
multiplicity-free for every weight of the battery (a violation is raised as
InconsistencyError), and a non-spherical record is searched for a witness
as witness_search searches, whose failure to find one is merely
inconclusive.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import asdict, dataclass, field
from numbers import Real
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

from .characters import DEFAULT_WITNESS_CAP, Weight, _TermMemo
from .characters import _first_repeat, _first_witness, _levi_straightener
from .rootsys import CartanType, RootSystemSpec, is_int, is_ordered
from .sphericality import _check_descents, _split
# Not called here: perfbench/test_perfbench.py checks that its tracer rebinds
# census.classify, so the name stays until that test changes.
from .sphericality import classify  # noqa: F401
from .weyl import (
    DEFAULT_ENUM_CAP,
    _elements,
    _layout,
    _w0,
    capped_group_order,
    classical_group_order,
    from_word,
)

LEVI_MODES = ("all-subsets", "full-descent-only")


def _type_mismatch(spec: RootSystemSpec, record_type: str) -> ValueError:
    return ValueError(f"record type {record_type!r} does not match {spec.cartan_type}")


def _node_text(rank: int) -> dict[int, str]:
    """The decimal text of each node 1..rank, keyed by the node.

    A dict, not a list indexed by the letter: a letter outside 1..rank
    (0, -1, rank + 1) is a KeyError, never the text of another node.
    """
    return {node: str(node) for node in range(1, rank + 1)}


class CensusRecord(NamedTuple):
    """One (w, I) pair of a census; an immutable, hashable named tuple."""

    cartan_type: CartanType
    w_word: tuple[int, ...]
    length: int
    levi: tuple[int, ...]
    d_word: tuple[int, ...]
    spherical: bool

    def to_json_line(self) -> str:
        """The json.dumps text of the six-field record, formatted directly.

        Each list is the texts of its nodes joined by ", ", and _json_line
        lays the line out, as for the census.  A field that from_json_line
        would refuse raises the same ValueError naming it.
        """
        _check_fields(self.cartan_type, *self[1:])
        text = _node_text(self.cartan_type.rank).__getitem__
        w = ", ".join(map(text, self.w_word))
        levi = ", ".join(map(text, self.levi))
        d = ", ".join(map(text, self.d_word))
        return _json_line(
            _line_head(self.cartan_type), w, self.length, levi, d, self.spherical
        )

    @classmethod
    def from_json_line(cls, spec: RootSystemSpec, line: str) -> "CensusRecord":
        """Parse one record line of spec's type.

        ValueError names the first malformed field: "w", "levi" and "d" must
        be lists of nodes of spec (ints in 1..rank; bools are not ints),
        "len" must equal len(w) and "spherical" must be a bool.
        """
        obj = json.loads(line)
        if type(obj) is not dict:
            raise ValueError(f"census line is not a JSON object: {line!r}")
        if obj.get("type") != str(spec.cartan_type):
            raise _type_mismatch(spec, obj.get("type"))
        fields = [obj.get(name) for name in ("w", "len", "levi", "d", "spherical")]
        _check_fields(spec.cartan_type, *fields)
        w, length, levi, d, spherical = fields
        return cls(spec.cartan_type, tuple(w), length, tuple(levi), tuple(d), spherical)


def _check_fields(ct: CartanType, w, length, levi, d, spherical) -> None:
    """Raise ValueError naming the first malformed field of a record of ct,
    as from_json_line states the fields; to_json_line checks the same, so
    it prints only lines that parse back (a list may also be a tuple)."""
    nodes = _node_text(ct.rank).keys()
    for name, word in (("w", w), ("levi", levi), ("d", d)):
        if not is_ordered(word) or not all(map(is_int, word)):
            raise ValueError(f"record field {name!r} is not a list of ints: {word!r}")
        if not nodes >= set(word):
            raise ValueError(
                f"record field {name!r} holds a letter outside the nodes "
                f"1..{ct.rank} of {ct}: {list(word)!r}"
            )
    if not is_int(length) or length != len(w):
        raise ValueError(f"record field 'len' is {length!r}, not len(w) = {len(w)}")
    if type(spherical) is not bool:
        raise ValueError(f"record field 'spherical' is not a bool: {spherical!r}")


def _line_head(ct: CartanType) -> str:
    """The text of a record line up to the first node of w."""
    return f'{{"type": "{ct}", "w": ['


def _json_line(
    head: str, w: str, length: int, levi: str, d: str, spherical: bool
) -> str:
    """The one layout of a record line, from _line_head and the node texts."""
    return (
        f'{head}{w}], "len": {length}, "levi": [{levi}], "d": [{d}], '
        f'"spherical": {"true" if spherical else "false"}}}'
    )


@dataclass
class CensusSummary:
    cartan_type: CartanType
    levi_mode: str
    group_order: int
    pair_count: int = 0
    spherical_count: int = 0
    toric_count: int = 0
    by_length: dict[int, dict[str, int]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "type": str(self.cartan_type),
            "levi_mode": self.levi_mode,
            "group_order": self.group_order,
            "pair_count": self.pair_count,
            "spherical_count": self.spherical_count,
            "toric_count": self.toric_count,
            "by_length": {
                str(k): dict(self.by_length[k]) for k in sorted(self.by_length)
            },
        }


def start_census(
    spec: RootSystemSpec,
    levi_mode: str = "all-subsets",
    cap: int = DEFAULT_ENUM_CAP,
) -> CensusSummary:
    """The empty summary of a census that may run, before any output.

    Rejects an unknown levi_mode or a cap below 1 with ValueError, and a
    group whose order passes cap with CapExceeded; enumeration is never
    silently truncated.
    """
    if levi_mode not in LEVI_MODES:
        raise ValueError(f"levi_mode must be one of {LEVI_MODES}")
    if not (is_int(cap) and cap >= 1):
        raise ValueError(f"census cap {cap!r} is not a positive integer")
    order = capped_group_order(spec, cap, "run this census")
    return CensusSummary(spec.cartan_type, levi_mode, order)


def _check_unstarted(spec: RootSystemSpec, summary: CensusSummary) -> None:
    """Raise ValueError unless summary is the empty summary of a census of spec."""
    if summary.cartan_type != spec.cartan_type:
        raise ValueError(
            f"census summary of type {summary.cartan_type} does not match "
            f"{spec.cartan_type}"
        )
    if summary.levi_mode not in LEVI_MODES:
        raise ValueError(f"levi_mode must be one of {LEVI_MODES}")
    if summary.group_order != classical_group_order(spec):
        raise ValueError(
            f"census summary gives the order of {spec.cartan_type} as "
            f"{summary.group_order}, not {classical_group_order(spec)}"
        )
    if (
        summary.pair_count
        or summary.spherical_count
        or summary.toric_count
        or summary.by_length
    ):
        raise ValueError("census summary already holds counts; start a new one")


def census_records(
    spec: RootSystemSpec,
    summary: CensusSummary,
    sink: Optional[IO[str]] = None,
) -> Iterator[CensusRecord]:
    """The records of the census that summary was started for, in order.

    summary must be the empty summary of a census of spec, as start_census
    returns it; any other (another type, an unknown mode, a wrong order, or
    counts already in it) is refused with ValueError before the first
    record.  Each record is counted into summary and written to sink as soon
    as its element leaves the enumeration, then yielded; no list of
    elements, records or lines is held.  summary is complete once the
    stream ends.  The records wrap the rows of _census_rows.
    """
    ct = spec.cartan_type
    for row in _census_rows(spec, summary, sink):
        yield CensusRecord(ct, *row)


def _census_rows(
    spec: RootSystemSpec, summary: CensusSummary, sink: Optional[IO[str]]
) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...], bool]]:
    """census_records as plain (w_word, length, levi, d_word, spherical) rows.

    The refusal, the counting and the sink writes are all here; fill_census
    drains this stream and builds no record.  The census reads the raw
    (packed w(rho), word) pairs of weyl._elements and builds no WeylElement.
    The word of w comes with its pair, and w_0(I) is its length and map from
    weyl._w0, so nothing is stripped but d.  The kernel that classify uses,
    _split, maps w(rho) to d(rho) by that map, |I| field steps, and strips d
    only over its leading nodes: it walks
    d(rho) over J = {1..k}, k = max(rank - 3, 0), to the element z without
    left descents in J, and takes the rest of the word from a table of
    those z, keyed by the packed z(rho) and filled as they stream by.  z is
    no longer than d, so it comes before w or is w itself (I empty).  The
    table holds |W| / |W_J| entries: 4,320 on E6, 24,192 on E7.  With a
    sink, each entry keeps the line text of z beside its word, the text
    its element's line already joined, so the text of d joins only the
    walked prefix to it.  Every pair keeps the length-additivity check; the
    subsets come from the negative coordinates of w(rho), so they need no
    validation.  A second table, keyed by the clear sign bits of the packed
    w(rho), that is by the descent set, holds each descent set's subsets
    with the text and the weyl._w0 of each, so a line
    joins the text of w once per element; _json_line lays it out, as for
    CensusRecord.to_json_line.
    """
    _check_unstarted(spec, summary)
    by_length = summary.by_length
    full = summary.levi_mode == "full-descent-only"
    lay = _layout(spec)
    top = lay.top
    cut = max(spec.rank - 3, 0)
    head = lay.mask(range(1, cut + 1))
    # packed z(rho) -> (word of z, its text or None without a sink)
    tails: dict[int, tuple[tuple[int, ...], Optional[str]]] = {}
    text = _node_text(spec.rank).__getitem__
    line_head = _line_head(spec.cartan_type)
    # clear sign bits -> (I, text of I, weyl._w0 of I) per subset, in
    # census order
    levis: dict[int, list[tuple]] = {}
    w_text = None
    for wt, w_word in _elements(spec, summary.group_order):
        if sink is not None:
            w_text = ", ".join(map(text, w_word))
        # w has no left descent in J iff its first letter, its smallest one,
        # is past the cut.
        if not w_word or w_word[0] > cut:
            tails[wt] = (w_word, w_text)
        length = len(w_word)
        negative = top & ~wt
        subsets = levis.get(negative)
        if subsets is None:
            subsets = levis[negative] = []
            descents = lay.nodes(negative)
            size = 1 << len(descents)
            for mask in (size - 1,) if full else range(size):
                subset = tuple(d for b, d in enumerate(descents) if mask >> b & 1)
                levi_text = ", ".join(map(text, subset))
                subsets.append((subset, levi_text, _w0(lay, subset)))
        per = by_length.get(length)
        if per is None:
            per = {"elements": 0, "pairs": 0, "spherical": 0}
            by_length[length] = per
        per["elements"] += 1
        # An element is toric iff w itself is a standard Coxeter element.
        summary.toric_count += length == len(set(w_word))
        for subset, levi_text, w0i in subsets:
            y, (tail, tail_text) = _split(lay, wt, w_word, subset, w0i, head, tails)
            d_word = y + tail
            spherical = len(d_word) == len(set(d_word))
            per["pairs"] += 1
            summary.pair_count += 1
            if spherical:
                per["spherical"] += 1
                summary.spherical_count += 1
            if sink is not None:
                if tail_text:
                    d_text = ", ".join([*map(text, y), tail_text])
                else:
                    d_text = ", ".join(map(text, y))
                sink.write(
                    _json_line(line_head, w_text, length, levi_text, d_text, spherical)
                    + "\n"
                )
            yield w_word, length, subset, d_word, spherical


def fill_census(
    spec: RootSystemSpec, summary: CensusSummary, sink: Optional[IO[str]] = None
) -> None:
    """Run the census of census_records to its end, building no record.

    summary is then complete, and every line has been written to sink.
    """
    deque(_census_rows(spec, summary, sink), maxlen=0)


def run_census(
    spec: RootSystemSpec,
    *,
    levi_mode: str = "all-subsets",
    cap: int = DEFAULT_ENUM_CAP,
    sink: Optional[IO[str]] = None,
    records_out: Optional[list[CensusRecord]] = None,
) -> CensusSummary:
    """Classify the whole group, streaming JSONL records to sink.

    start_census, then census_records to the end.

    records_out, if given, additionally receives every CensusRecord.
    """
    summary = start_census(spec, levi_mode, cap)
    if records_out is None:
        fill_census(spec, summary, sink)
    else:
        records_out.extend(census_records(spec, summary, sink))
    return summary


class InconsistencyError(RuntimeError):
    """A spherical census record failed a multiplicity-freeness check."""

    def __init__(self, record: CensusRecord, lam: Weight, mu, multiplicity):
        self.record = record
        self.lam = lam
        self.mu = mu
        self.multiplicity = multiplicity
        super().__init__(
            f"spherical record w={list(record.w_word)} levi={list(record.levi)} "
            f"fails multiplicity-freeness at lambda={list(lam)}: "
            f"mu={list(mu)} has multiplicity {multiplicity}"
        )


@dataclass(kw_only=True)
class CrossCheckReport:
    records_seen: int = 0
    sampled: int = 0
    spherical_checked: int = 0
    battery_size: int
    witness_found: int = 0
    witness_inconclusive: int = 0
    sample_rate: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_sample_rate(sample: float) -> None:
    """Reject a cross-check sample rate outside (0, 1], NaN included.

    A rate of 0 checks no record, so a cross-check at it could not fail.  A
    bool or a value that is not a real number is refused the same way, as
    witness_search refuses a bool cap.
    """
    if type(sample) is bool or not isinstance(sample, Real) or not 0 < sample <= 1:
        raise ValueError(f"cross-check sample rate {sample!r} is not a real in (0, 1]")


def check_battery(spec: RootSystemSpec, battery) -> list[Weight]:
    """The battery as tuples, once it is checked nonempty and dominant integral.

    An empty battery would pass every spherical record without checking a
    weight, so it raises ValueError like a weight that is not dominant; so
    does a battery, or a weight of it, that is not exactly a list or tuple
    (rootsys.is_ordered).
    """
    if not (is_ordered(battery) and all(map(is_ordered, battery))):
        raise ValueError(
            f"{spec.cartan_type} battery {battery!r} is not a list of weights"
        )
    weights = list(map(tuple, battery))
    if not weights:
        raise ValueError(f"{spec.cartan_type} battery names no weight")
    for lam in weights:
        if len(lam) != spec.rank or not all(is_int(x) and x >= 0 for x in lam):
            raise ValueError(f"{spec.cartan_type} battery weight {lam} is not dominant")
    return weights


def cross_check(
    spec: RootSystemSpec,
    records: Iterable[CensusRecord],
    battery: Sequence[Weight],
    sample: Optional[float] = None,
    *,
    seed: int = 0,
) -> CrossCheckReport:
    """Validate census records by explicit character computation.

    Spherical records must be multiplicity-free for every battery weight;
    any failure raises InconsistencyError naming (w, I, lambda, mu).
    Non-spherical records are searched for a witness as witness_search
    searches at its default coefficient cap; a search that tries every
    lambda of the lambda budget without a witness is counted as
    inconclusive, not an error, and one that skipped a lambda past the term
    ceiling without a witness raises CharacterBudgetExceeded, as a spherical
    record whose character passes the ceiling does.  Each
    sampled record is checked against its descents once, and one
    straightener serves all its weights; one memo of orbit characters
    serves the whole stream.

    Sampling is deterministic given the seed: one draw per record, in
    record order.  The default rate is 1.0 for groups of at most 500
    elements and 0.05 above that.  The battery and the rate are checked
    (ValueError) before the first record is read, and each record's Cartan
    type before any work on it, so records may be the live census_records
    stream, which a failure stops at its record.  A stream that ends with no
    record sampled has checked nothing, so it raises ValueError naming
    records_seen and the rate, and no report is returned.
    """
    battery = check_battery(spec, battery)
    if sample is None:
        sample = 1.0 if classical_group_order(spec) <= 500 else 0.05
    check_sample_rate(sample)
    rng = random.Random(seed)
    report = CrossCheckReport(battery_size=len(battery), sample_rate=sample)
    memo = _TermMemo()
    for rec in records:
        if rec.cartan_type != spec.cartan_type:
            raise _type_mismatch(spec, str(rec.cartan_type))
        report.records_seen += 1
        if rng.random() >= sample:
            continue
        report.sampled += 1
        w = from_word(spec, rec.w_word)
        subset = _check_descents(spec, w, rec.levi)
        multiplicities = _levi_straightener(spec, w, subset, memo)
        if rec.spherical:
            for lam in battery:
                mu, m = _first_repeat(*multiplicities(lam))
                if mu is not None:
                    raise InconsistencyError(rec, lam, mu, m)
            report.spherical_checked += 1
        else:
            found = _first_witness(multiplicities, spec.rank, DEFAULT_WITNESS_CAP)
            if found is None:
                report.witness_inconclusive += 1
            else:
                report.witness_found += 1
    if not report.sampled:
        raise ValueError(
            f"cross-check sampled none of {report.records_seen} records at rate "
            f"{sample}; nothing was checked"
        )
    return report
