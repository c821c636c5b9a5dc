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
list and the cross-check all read it as it is produced.  cross_check
validates records against explicit character computations: a spherical
record must be multiplicity-free for every weight of the battery (a
violation is raised as InconsistencyError), and a non-spherical record is
handed to witness_search, whose failure to find a witness is merely
inconclusive.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import IO, Iterable, Iterator, Optional, Sequence

from .characters import (
    DEFAULT_WITNESS_CAP,
    Weight,
    is_multiplicity_free,
    witness_search,
)
from .rootsys import CartanType, RootSystemSpec, is_int
from .sphericality import _split
# Not called here: perfbench/test_perfbench.py checks that its tracer rebinds
# census.classify, so the name stays until that test changes.
from .sphericality import classify  # noqa: F401
from .weyl import (
    DEFAULT_ENUM_CAP,
    CapExceeded,
    classical_group_order,
    enumerate_group,
    from_word,
)

LEVI_MODES = ("all-subsets", "full-descent-only")


def _ints(letters: tuple[int, ...]) -> str:
    return ", ".join(map(str, letters))


@dataclass(frozen=True)
class CensusRecord:
    cartan_type: CartanType
    w_word: tuple[int, ...]
    length: int
    levi: tuple[int, ...]
    d_word: tuple[int, ...]
    spherical: bool

    def to_json_line(self) -> str:
        """The json.dumps text of the six-field record, formatted directly."""
        return (
            f'{{"type": "{self.cartan_type}", "w": [{_ints(self.w_word)}], '
            f'"len": {self.length}, "levi": [{_ints(self.levi)}], '
            f'"d": [{_ints(self.d_word)}], '
            f'"spherical": {"true" if self.spherical else "false"}}}'
        )

    @classmethod
    def from_json_line(cls, spec: RootSystemSpec, line: str) -> "CensusRecord":
        obj = json.loads(line)
        if obj["type"] != str(spec.cartan_type):
            raise ValueError(
                f"record type {obj['type']!r} does not match {spec.cartan_type}"
            )
        return cls(
            cartan_type=spec.cartan_type,
            w_word=tuple(obj["w"]),
            length=obj["len"],
            levi=tuple(obj["levi"]),
            d_word=tuple(obj["d"]),
            spherical=obj["spherical"],
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

    Rejects an unknown levi_mode with ValueError, and a group whose order
    passes cap with CapExceeded; enumeration is never silently truncated.
    """
    if levi_mode not in LEVI_MODES:
        raise ValueError(f"levi_mode must be one of {LEVI_MODES}")
    order = classical_group_order(spec)
    if order > cap:
        raise CapExceeded(
            f"group of type {spec.cartan_type} has order {order}, "
            f"over the cap {cap}; raise the cap to run this census"
        )
    return CensusSummary(spec.cartan_type, levi_mode, order)


def census_records(
    spec: RootSystemSpec,
    summary: CensusSummary,
    sink: Optional[IO[str]] = None,
) -> Iterator[CensusRecord]:
    """The records of the census that summary was started for, in order.

    Each record is counted into summary and written to sink as soon as its
    element leaves the enumeration, then yielded; no list of elements,
    records or lines is held, and the words of w and w_0(I) are never
    stripped, only that of d.  Every pair goes through the kernel that
    classify uses, length-additivity check included; the subsets come from
    the negative coordinates of w(rho), so they need no validation.
    summary is complete once the stream ends.
    """
    ct = spec.cartan_type
    by_length = summary.by_length
    full = summary.levi_mode == "full-descent-only"
    for w in enumerate_group(spec, summary.group_order):
        wt, w_word = w.rho_image, w.word
        length = len(w_word)
        descents = tuple(j + 1 for j, c in enumerate(wt) if c < 0)
        if full:
            subsets = (descents,)
        else:
            subsets = [
                tuple(d for b, d in enumerate(descents) if mask >> b & 1)
                for mask in range(1 << len(descents))
            ]
        per = by_length.get(length)
        if per is None:
            per = {"elements": 0, "pairs": 0, "spherical": 0}
            by_length[length] = per
        per["elements"] += 1
        # An element is toric iff w itself is a standard Coxeter element.
        summary.toric_count += length == len(set(w_word))
        for subset in subsets:
            d_word = _split(spec, wt, w_word, subset)[1]
            rec = CensusRecord(
                ct, w_word, length, subset, d_word, len(d_word) == len(set(d_word))
            )
            per["pairs"] += 1
            summary.pair_count += 1
            if rec.spherical:
                per["spherical"] += 1
                summary.spherical_count += 1
            if sink is not None:
                sink.write(rec.to_json_line() + "\n")
            yield rec


def run_census(
    spec: RootSystemSpec,
    *,
    levi_mode: str = "all-subsets",
    cap: int = DEFAULT_ENUM_CAP,
    sink: Optional[IO[str]] = None,
    records_out: Optional[list[CensusRecord]] = None,
) -> CensusSummary:
    """Classify the whole group, streaming JSONL records to sink.

    start_census, then census_records to the end.  An E6 full-descent
    census (51,840 records) runs in about 1.84 s at a peak RSS of 44 MB on a
    2-vCPU VM (perfbench census-e6 median, reference seconds).

    records_out, if given, additionally receives every CensusRecord.
    """
    summary = start_census(spec, levi_mode, cap)
    for rec in census_records(spec, summary, sink):
        if records_out is not None:
            records_out.append(rec)
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

    A rate of 0 checks no record, so a cross-check at it could not fail.
    """
    if not 0 < sample <= 1:
        raise ValueError(f"cross-check sample rate {sample} is not in (0, 1]")


def check_battery(spec: RootSystemSpec, battery) -> list[Weight]:
    """The battery as tuples, once every weight is checked dominant integral."""
    battery = [tuple(lam) for lam in battery]
    for lam in battery:
        if len(lam) != spec.rank or not all(is_int(x) and x >= 0 for x in lam):
            raise ValueError(f"{spec.cartan_type} battery weight {lam} is not dominant")
    return battery


def cross_check(
    spec: RootSystemSpec,
    records: Iterable[CensusRecord],
    battery: Sequence[Weight],
    sample: Optional[float] = None,
    *,
    witness_cap: int = DEFAULT_WITNESS_CAP,
    seed: int = 0,
) -> CrossCheckReport:
    """Validate census records by explicit character computation.

    Spherical records must be multiplicity-free for every battery weight;
    any failure raises InconsistencyError naming (w, I, lambda, mu).
    Non-spherical records are handed to witness_search; not finding a
    witness within the budget is counted as inconclusive, not an error.

    Sampling is deterministic given the seed: one draw per record, in
    record order.  The default rate is 1.0 for groups of at most 500
    elements and 0.05 above that.  The battery and the rate are checked
    (ValueError) before the first record is read, so records may be the
    live census_records stream, which a failure stops at its record.
    """
    battery = check_battery(spec, battery)
    if sample is None:
        sample = 1.0 if classical_group_order(spec) <= 500 else 0.05
    check_sample_rate(sample)
    rng = random.Random(seed)
    report = CrossCheckReport(battery_size=len(battery), sample_rate=sample)
    for rec in records:
        report.records_seen += 1
        if rng.random() >= sample:
            continue
        report.sampled += 1
        w = from_word(spec, rec.w_word)
        if rec.spherical:
            for lam in battery:
                chk = is_multiplicity_free(spec, lam, w, rec.levi)
                if not chk:
                    raise InconsistencyError(rec, lam, chk.witness, chk.multiplicity)
            report.spherical_checked += 1
        else:
            found = witness_search(spec, w, rec.levi, witness_cap)
            if found is None:
                report.witness_inconclusive += 1
            else:
                report.witness_found += 1
    return report
