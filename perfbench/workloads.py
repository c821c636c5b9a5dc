"""The benchmark workloads: inputs from a seed, the timed phase, and oracles.

Each workload object has three steps:

    setup(seed)                   -> inputs   (counted in setup_s)
    run(inputs)                   -> Outcome  (the timed phase)
    check(seed, inputs, outcome)  -> Verdict  (outside the timed region)

The package is reached only through the attributes of `levispherical` and
`levispherical.cli`, looked up at call time, so that the tracer in
tracing.py sees every call the workloads make.

CONFIGS["full"] holds the measured workloads with the outputs of the seed
commit pinned; CONFIGS["smoke"] runs the same code paths on small types in
well under a second each.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import levispherical as L
from levispherical import cli

# Times the timed phases.  The worker puts calibrate.Sampler.clock here, which
# leaves out the time of the calibration ticks.
clock = perf_counter


@dataclass
class Outcome:
    """What the timed phase produced."""

    wall_s: float
    ops: int  # units of work done: records, queries, checks or terms
    latencies: list[float]  # seconds per user-level operation
    result: Any  # raw outputs, handed to check()
    starts: list[float] = field(default_factory=list)  # clock() as each latency began


@dataclass
class Verdict:
    attempted: int
    failed: int
    digest: str  # digest of the outputs; equal across runs of one input
    problems: list[str] = field(default_factory=list)


def line_set_digest(lines) -> str:
    """Sum of per-line sha256 values mod 2**256: blind to line order only."""
    total = 0
    for line in lines:
        total += int.from_bytes(hashlib.sha256(line.encode()).digest(), "big")
    return f"{total % (1 << 256):064x}"


def sequence_digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _verdict(attempted: int, bad: int, digest: str, problems: list[str]) -> Verdict:
    """Whole-output problems fail every operation; otherwise count bad ones."""
    failed = attempted if problems else bad
    if bad and not problems:
        problems = [f"{bad} operations failed their checks"]
    return Verdict(attempted, failed, digest, problems)


class _Sink:
    """Collects what cli.main prints; the text is examined after timing."""

    def __init__(self) -> None:
        self._chunks: list[str] = []

    def write(self, text: str) -> int:
        self._chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self._chunks)


def _coxeter_word(word) -> bool:
    """Distinct letters: a reduced word of a standard Coxeter element."""
    return len(word) == len(set(word))


class Census:
    """`levispherical census --levi descents`, driven through cli.main.

    The seed does not enter: a census has no free input.
    """

    def __init__(self, cartan, *, order, spherical, toric, digest):
        self.cartan = cartan
        self.order = order
        self.spherical = spherical
        self.toric = toric
        self.digest = digest

    def setup(self, seed):
        L.build_root_system(self.cartan)
        return None

    def run(self, inputs):
        sink = _Sink()
        argv = ["census", "--type", self.cartan, "--levi", "descents"]
        start = clock()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        wall = clock() - start
        text = sink.text()
        return Outcome(wall, max(text.count("\n") - 1, 0), [wall], (code, text))

    def check(self, seed, inputs, out):
        code, text = out.result
        lines = text.splitlines()
        records, summary_line = lines[:-1], lines[-1] if lines else "{}"
        problems = []
        if code != 0:
            problems.append(f"census exited with {code}")
        bad = spherical = toric = 0
        last_len = -1
        for line in records:
            try:
                rec = json.loads(line)
                ok = (
                    rec["type"] == self.cartan
                    and rec["len"] == len(rec["w"]) >= last_len
                    and rec["spherical"] == _coxeter_word(rec["d"])
                    and rec["levi"] == sorted(set(rec["levi"]))
                    and len(rec["d"]) <= rec["len"]
                )
                last_len = rec["len"]
            except (ValueError, KeyError, TypeError) as exc:
                ok = False
                problems.append(f"unreadable record {line[:60]!r}: {exc}")
            if ok:
                spherical += rec["spherical"]
                toric += _coxeter_word(rec["w"])
            bad += not ok
        try:
            summary = json.loads(summary_line)
        except ValueError:
            summary = {}
        expected = {
            "group_order": self.order,
            "pair_count": self.order,
            "spherical_count": self.spherical,
            "toric_count": self.toric,
        }
        for key, want in expected.items():
            if summary.get(key) != want:
                problems.append(f"summary {key} = {summary.get(key)}, expected {want}")
        recount = {"records": len(records), "spherical": spherical, "toric": toric}
        for key, want in zip(recount, (self.order, self.spherical, self.toric)):
            if recount[key] != want:
                problems.append(f"{recount[key]} {key} in the stream, expected {want}")
        digest = line_set_digest(records)
        if digest != self.digest:
            problems.append(f"record digest {digest} != pinned {self.digest}")
        return _verdict(self.order, bad, digest, problems)


class Queries:
    """Closed-loop point queries: from_word -> left_descents -> classify.

    Each query is a seeded random word of random length 0..max_len and a
    seeded random subset I of the left descent set the program reports.
    """

    def __init__(self, cartan, *, queries, max_len, digest_seed0):
        self.cartan = cartan
        self.queries = queries
        self.max_len = max_len
        self.digest_seed0 = digest_seed0

    def setup(self, seed):
        spec = L.build_root_system(self.cartan)
        rng = random.Random(seed)
        n = spec.rank
        queries = []
        for _ in range(self.queries):
            word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, self.max_len)))
            queries.append((word, rng.getrandbits(n)))
        return spec, queries

    def run(self, inputs):
        spec, queries = inputs
        results = []
        latencies = []
        starts = []
        start = clock()
        for word, mask in queries:
            t0 = clock()
            starts.append(t0)
            try:
                w = L.from_word(spec, word)
                descents = sorted(L.left_descents(spec, w))
                levi = tuple(d for k, d in enumerate(descents) if mask >> k & 1)
                res = L.classify(spec, w, levi)
            except Exception as exc:  # a raising query is a failed query
                latencies.append(clock() - t0)
                results.append((None, None, repr(exc)))
                continue
            latencies.append(clock() - t0)
            results.append((w, levi, res))
        wall = clock() - start
        return Outcome(wall, len(queries), latencies, results, starts)

    def check(self, seed, inputs, out):
        spec, queries = inputs
        bad = 0
        problems = []
        summary = []
        for (word, _mask), (w, levi, res) in zip(queries, out.result):
            if w is None:
                bad += 1
                continue
            summary.append((res.w_word, res.levi, res.d_word, res.spherical))
            w0i_word = L.reduced_word(spec, L.longest_parabolic(spec, levi))
            ok = (
                res.levi == levi
                and res.spherical == _coxeter_word(res.d_word)
                and res.len_w == len(res.w_word) <= len(word)
                and (len(word) - res.len_w) % 2 == 0
                and res.len_w == res.len_w0I + res.len_d == len(w0i_word) + len(res.d_word)
                and L.from_word(spec, res.w_word) == w
                and L.from_word(spec, w0i_word + res.d_word) == w
            )
            bad += not ok
        digest = sequence_digest(summary)
        if seed == 0 and digest != self.digest_seed0:
            problems.append(f"seed-0 result digest {digest} != pinned {self.digest_seed0}")
        return _verdict(len(queries), bad, digest, problems)


def record_key(rec) -> str:
    """A record's fields in a form independent of the package's JSON."""
    return f"{rec.cartan_type}|{rec.w_word}|{rec.length}|{rec.levi}|{rec.d_word}|{rec.spherical}"


class CrossCheck:
    """An all-subsets census into records_out, then cross_check on a sample.

    The sample is drawn between the two timed calls, from the records sorted
    by (length, w, I), so it does not depend on the census's order:

    * one record drawn from the seed out of each run of `block` consecutive
      records whose Levi has fewer than rank - 1 nodes;
    * the first of each run of `block` records whose Levi has rank - 1 or
      more nodes, whatever the seed;
    * the 2**rank records of the longest element w0, whatever the seed.

    Records with large Levis build large characters and cost up to a
    hundred times the median one (0.5 s against 5 ms on F4); drawing them
    too made the cost of the sample, and so the figures, differ by about 9%
    between seeds.  w0 with I = all nodes alone costs about half of a 20%
    sample of F4 and sets the peak memory.  The sample goes to cross_check
    with sample=1.0.  Per-record latency is not a metric here: its tail is
    a handful of records, so it would measure the draw.
    """

    def __init__(self, cartan, *, block, order, pairs, spherical, toric,
                 records_digest, report_digest_seed0):
        self.cartan = cartan
        self.block = block
        self.order = order
        self.pairs = pairs
        self.spherical = spherical
        self.toric = toric
        self.records_digest = records_digest
        self.report_digest_seed0 = report_digest_seed0

    def setup(self, seed):
        spec = L.build_root_system(self.cartan)
        n = spec.rank
        battery = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        battery.append((1,) * n)
        return spec, battery, seed

    def draw(self, spec, records, seed):
        rng = random.Random(seed)
        top = len(spec.positive_roots)
        light, heavy, longest = [], [], []
        for rec in sorted(records, key=lambda r: (r.length, r.w_word, r.levi)):
            if rec.length == top:
                longest.append(rec)
            elif len(rec.levi) >= spec.rank - 1:
                heavy.append(rec)
            else:
                light.append(rec)
        b = self.block
        drawn = [light[k + rng.randrange(min(b, len(light) - k))]
                 for k in range(0, len(light), b)]
        return drawn + heavy[::b] + longest

    def run(self, inputs):
        spec, battery, seed = inputs
        start = clock()
        records = []
        summary = L.run_census(spec, records_out=records)
        census_s = clock() - start
        sample = self.draw(spec, records, seed)
        start = clock()
        try:
            report = L.cross_check(spec, sample, battery, sample=1.0, seed=seed)
        except L.InconsistencyError as exc:
            report = exc
        wall = census_s + clock() - start
        return Outcome(wall, len(sample), [wall], (summary, records, sample, report))

    def check(self, seed, inputs, out):
        spec, battery, _ = inputs
        summary, records, sample, report = out.result
        problems = []
        expected = {
            "group_order": self.order,
            "pair_count": self.pairs,
            "spherical_count": self.spherical,
            "toric_count": self.toric,
        }
        for key, want in expected.items():
            if getattr(summary, key) != want:
                problems.append(f"summary {key} = {getattr(summary, key)}, expected {want}")
        bad = sum(
            not (rec.length == len(rec.w_word)
                 and rec.spherical == _coxeter_word(rec.d_word))
            for rec in records
        )
        if bad:
            problems.append(f"{bad} census records fail their own invariants")
        if len(records) != self.pairs or sum(r.spherical for r in records) != self.spherical:
            problems.append("records_out disagrees with the pinned census counts")
        digest = line_set_digest(record_key(r) for r in records)
        if digest != self.records_digest:
            problems.append(f"records digest {digest} != pinned {self.records_digest}")
        if isinstance(report, L.InconsistencyError):
            problems.append(f"InconsistencyError: {report}")
            report_obj = {}
        else:
            report_obj = report.to_json_dict()
            found = report.witness_found + report.witness_inconclusive
            if not (
                report.records_seen == report.sampled == len(sample)
                and report.sampled == report.spherical_checked + found
                and report.spherical_checked == sum(r.spherical for r in sample)
                and report.battery_size == len(battery)
                and all(r.length == len(spec.positive_roots) for r in sample[-2**spec.rank:])
            ):
                problems.append(f"inconsistent report {report_obj}")
        report_digest = sequence_digest([sorted(report_obj.items())])
        if seed == 0 and report_digest != self.report_digest_seed0:
            problems.append(
                f"seed-0 report digest {report_digest} != pinned {self.report_digest_seed0}"
            )
        return _verdict(len(sample), 0, f"{digest}:{report_digest}", problems)


def chain_dimension(mu, chain) -> int:
    """Weyl dimension formula for a type-A Levi whose nodes form a chain.

    The positive roots of A_k are the intervals i..j of the chain, and
    <mu + rho, beta^vee> is the sum of mu_t + 1 over the interval.
    """
    num = den = 1
    for i in range(len(chain)):
        for j in range(i, len(chain)):
            num *= sum(mu[chain[t] - 1] + 1 for t in range(i, j + 1))
            den *= j - i + 1
    return num // den


class Decompose:
    """demazure_char(rho, w0) and its decomposition over a type-A Levi.

    `chain` lists the Levi nodes in order along the Dynkin chain.  The seed
    does not enter: the input is fixed.
    """

    def __init__(self, cartan, *, chain, terms, mass, entries, digest):
        self.cartan = cartan
        self.chain = chain
        self.terms = terms
        self.mass = mass
        self.entries = entries
        self.digest = digest

    def setup(self, seed):
        spec = L.build_root_system(self.cartan)
        n = spec.rank
        return spec, (1,) * n, L.longest_parabolic(spec, range(1, n + 1))

    def run(self, inputs):
        spec, rho, w0 = inputs
        start = clock()
        char = L.demazure_char(spec, rho, w0)
        entries = L.decompose_levi(spec, char, self.chain)
        wall = clock() - start
        return Outcome(wall, len(char), [wall], (char, entries))

    def check(self, seed, inputs, out):
        spec = inputs[0]
        char, entries = out.result
        cartan = spec.cartan_matrix
        problems = []
        if any(
            cartan[a - 1][b - 1] != (-1 if abs(ia - ib) == 1 else 2 if a == b else 0)
            for ia, a in enumerate(self.chain)
            for ib, b in enumerate(self.chain)
        ):
            problems.append(f"nodes {self.chain} are not an A-type chain")
        if len(char) != self.terms or char.mass() != self.mass:
            problems.append(
                f"character has {len(char)} terms and mass {char.mass()}, "
                f"expected {self.terms} and {self.mass}"
            )
        if len(entries) != self.entries:
            problems.append(f"{len(entries)} entries, expected {self.entries}")
        if any(m < 1 or any(mu[i - 1] < 0 for i in self.chain) for mu, m in entries):
            problems.append("an entry is not Levi-dominant with positive multiplicity")
        rebuilt = sum(m * chain_dimension(mu, self.chain) for mu, m in entries)
        if rebuilt != self.mass:
            problems.append(f"sum of mult * dim_I(mu) = {rebuilt}, expected {self.mass}")
        digest = sequence_digest(sorted((tuple(mu), m) for mu, m in entries))
        if digest != self.digest:
            problems.append(f"decomposition digest {digest} != pinned {self.digest}")
        return _verdict(len(char), 0, digest, problems)


CONFIGS = {
    "full": {
        "census-e6": Census(
            "E6", order=51_840, spherical=1_897, toric=242,
            digest="c0b61a50b9012a7bc64285a19432547929b2598919a6754cb7e0b7903e5bc973",
        ),
        "queries-e8": Queries(
            "E8", queries=3_000, max_len=240,
            digest_seed0="e916e1f3981bc6ac37b6b10417ab6a0d98922179b44bdc1ab72247ffce906192",
        ),
        "crosscheck-f4": CrossCheck(
            "F4", block=10, order=1_152, pairs=5_089, spherical=228, toric=34,
            records_digest="22fec6ae6e86a9acc53d06b7f6bec55b1dbd8122bee38c6866e89237188c0466",
            report_digest_seed0="81fc903a25e02375f0ff40e90cca8759b9b81f4bc7b9c146b509f655358b92b5",
        ),
        "decompose-d5": Decompose(
            "D5", chain=(2, 3, 4), terms=13_213, mass=2**20, entries=939,
            digest="0ab442b7f2cbd45fc47498a974d0ab578a626c0f78809c94eec5e94b276c08f3",
        ),
    },
    "smoke": {
        "census-e6": Census(
            "B3", order=48, spherical=30, toric=13,
            digest="19ada5ae366cfe4f675674e603ee41334c2fd13e805e2d0b39ffde3329dfa8a0",
        ),
        "queries-e8": Queries(
            "B3", queries=200, max_len=18,
            digest_seed0="17b7995082fca7008391ccbaef8583bfa6806b349d4e008c40c5894ba40f2120",
        ),
        "crosscheck-f4": CrossCheck(
            "B3", block=2, order=48, pairs=147, spherical=52, toric=13,
            records_digest="eccbe77155af6a8a19a34f47081a85eff81b8d02ad3bfc5f39b64b3567bbd3ee",
            report_digest_seed0="a032f464f55a81d3b002e07487df51572b5014e7ed17690928b63402075d7011",
        ),
        "decompose-d5": Decompose(
            "A3", chain=(1, 2), terms=38, mass=2**6, entries=8,
            digest="d0587356895e790ef74a5036ebdbcaf6480af63e819449be9a480ae7f95d829d",
        ),
    },
}

WORKLOADS = tuple(CONFIGS["full"])
