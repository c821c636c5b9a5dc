"""The CI workflow's pinned checks: `python tests/pins.py NAME` runs one pin,
and `python tests/pins.py` runs every pin, each in its own process.

Each pin runs the checkout's code and compares its output with pinned
stdout digests, line counts and peak RSS bounds.  Stdlib only.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
ENV = dict(os.environ, PYTHONPATH=SRC)



def census(label, argv, *, sha256=None, lines=None, last=None, within_mb=None):
    """Run `python argv` from the repository root and return its last line.

    Its stdout is streamed through sha256 and counted, and the peak RSS is
    that of this child alone (os.wait4); each given pinned value is checked.
    Linux starts a child's peak RSS at this process's RSS, so the package
    is imported only by pins that bound no memory or after their one run.
    """
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=ENV,
                          stdout=subprocess.PIPE) as proc:
        digest, count, tail = hashlib.sha256(), 0, b""
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
            count += chunk.count(b"\n")
            tail = (tail + chunk)[-(1 << 16):]
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024
    print(f"{label}: {count} lines, {time.perf_counter() - start:.1f} s wall, "
          f"peak RSS {peak_mb:.1f} MB, stdout sha256: {digest.hexdigest()}")
    if proc.returncode:
        sys.exit(f"{label}: exit status {proc.returncode}")
    if sha256 is not None and digest.hexdigest() != sha256:
        sys.exit(f"{label}: stdout changed, pinned sha256 {sha256}")
    if lines is not None and count != lines:
        sys.exit(f"{label}: expected {lines} lines")
    if within_mb is not None and peak_mb > within_mb:
        sys.exit(f"{label}: expected a peak RSS within {within_mb} MB")
    tail = tail.splitlines()[-1].decode() if tail else ""
    if last is not None and tail != last:
        sys.exit(f"{label}: last line {tail!r}, expected {last!r}")
    return tail


def transcript(label, runs, sha256):
    """Hash argv, stdout, stderr and exit status of `levispherical argv` for each run."""
    digest = hashlib.sha256()
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "levispherical", *argv],
                              cwd=ROOT, env=ENV, capture_output=True)
        digest.update(b"\0".join(
            [repr(argv).encode(), proc.stdout, proc.stderr, b"%d\n" % proc.returncode]
        ))
    print(f"{len(runs)} {label} runs, stdout/stderr/exit sha256: {digest.hexdigest()}")
    if digest.hexdigest() != sha256:
        sys.exit(f"{label}: output changed, pinned sha256 {sha256}")


CENSUS = ["-m", "levispherical", "census"]
E6_BATTERY = [*CENSUS, "--type", "E6", "--levi", "descents", "--battery", "fundamentals;rho"]
E7_COUNT = ("import levispherical as lev; print(sum(1 for _ in "
            "lev.enumerate_group(lev.build_root_system('E7'), cap=3_000_000)))")


def digests():
    for workload in ("census-e6", "queries-e8", "crosscheck-f4", "decompose-d5"):
        last = census(workload, ["perfbench/run.py", "--workload", workload, "--seconds", "1"])
        if '"correct": true' not in last:
            sys.exit(f"{workload}: digest check failed: {last}")


def e7_descents():
    summary = json.loads(census(
        "E7 full-descent census",
        [*CENSUS, "--type", "E7", "--levi", "descents", "--cap", "3000000"],
        sha256="527cd859fbe96a6052ee99066ef92908a49f70281e3985a725ad5840ef0d2e86",
        lines=2_903_041, within_mb=120,
    ))
    from levispherical import build_root_system
    from oracles import census_oracle
    oracle = census_oracle(build_root_system("E7"), "full-descent-only")
    for key in ("spherical_count", "toric_count", "by_length"):
        if summary[key] != oracle[key]:
            sys.exit(f"E7 full-descent census: {key} differs from the oracle")
    print(f"E7 summary matches the oracle: {oracle['spherical_count']} spherical, "
          f"{oracle['toric_count']} toric, {len(oracle['by_length'])} lengths")


def mf_at_rho():
    from levispherical import Witness, build_root_system
    from oracles import mf_at_rho_census
    # An observation, not a theorem: on complete all-subsets censuses of A5 and
    # D5, is_multiplicity_free at lambda = rho decides every pair; F4 has exactly
    # 12 non-spherical pairs that are multiplicity-free at rho, pinned with the
    # first witness witness_search finds for each.
    pinned_by_type = {
        "A5": (4683, []),
        "D5": (12483, []),
        "F4": (5089, [
            ((2, 3, 2, 3), (3,), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((1, 2, 3, 2, 3), (3,), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((1, 2, 3, 2, 3), (1, 3), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((2, 3, 2, 1, 3), (3,), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((1, 2, 3, 2, 1, 3), (1, 3), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((3, 2, 4, 3, 2, 3), (3, 4), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((1, 3, 2, 4, 3, 2, 3), (3, 4), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((1, 3, 2, 4, 3, 2, 3), (1, 3, 4), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((3, 2, 4, 3, 2, 1, 3), (3, 4), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((1, 3, 2, 4, 3, 2, 1, 3), (1, 3, 4), Witness((0, 1, 2, 0), (2, -1, 2, 2), 2)),
            ((2, 1, 3, 2, 1, 3, 2, 3), (2, 3), Witness((0, 1, 2, 0), (-2, 1, 2, 2), 2)),
            ((2, 3, 2, 3, 4, 3, 2, 1, 3, 2, 4, 3, 2), (2, 3, 4),
             Witness((0, 1, 2, 0), (-2, 1, 2, 2), 2)),
        ]),
    }
    for type_str, pinned in pinned_by_type.items():
        start = time.perf_counter()
        pairs, found = mf_at_rho_census(build_root_system(type_str))
        print(f"{type_str}: {pairs} pairs, {len(found)} non-spherical pairs "
              f"multiplicity-free at rho, {time.perf_counter() - start:.1f} s wall")
        if (pairs, found) != pinned:
            sys.exit(f"{type_str}: pairs or pinned pairs mf at rho changed")


D4 = ["--type", "D4", "--word", "3 2 3 4 2 1 2"]
F4 = ["--type", "F4", "--word", "4 3 4 2 3 4 2 3 2 1 2 3 4"]
A2 = ["--type", "A2", "--word", "1"]
WORD_COMMANDS = [
    ["classify", *D4, "--levi", "2,3"],
    ["classify", *F4, "--levi", "descents", "--pretty"],
    ["classify", *A2],
    ["classify", *A2, "--levi", "2"],
    ["classify", *A2, "--levi", "7"],
    ["classify", "--type", "Z9", "--word", "1 x"],
    ["classify", "--type", "A2", "--word", "1 x"],
    ["classify", "--type", "A2", "--word", "1 5"],
    ["toric", *D4],
    ["toric", *A2, "--pretty"],
    ["descents", *F4],
    ["descents", *D4, "--pretty"],
    ["demazure", *A2, "--weight", "1 1"],
    ["demazure", *A2, "--weight", "1 1", "--pretty"],
    ["demazure", *A2, "--weight", "1 -1"],
    ["demazure", *A2, "--weight", "1 0 0"],
    ["decompose", *D4, "--weight", "1 1 0 0", "--levi", "descents"],
    ["decompose", *D4, "--weight", "1 1 0 0", "--levi", "2 3", "--pretty"],
    ["decompose", "--type", "A3", "--word", "1", "--weight", "0 0 1", "--levi", "2"],
    ["decompose", *A2, "--weight", "1 1", "--levi", "2"],
    ["decompose", *A2, "--weight", "1 -1", "--levi", "9"],
    ["decompose", *A2, "--weight", "1", "--levi", "9"],
    ["decompose", *A2, "--weight", "1 1", "--levi", "9"],
    ["mf-check", *D4, "--weight", "1 1 0 0", "--levi", "2 3"],
    ["mf-check", *D4, "--weight", "1 1 0 0", "--levi", "2", "--pretty"],
    ["mf-check", *A2, "--weight", "1 1", "--levi", "2"],
    ["witness", *D4, "--levi", "2 3"],
    ["witness", *D4, "--levi", "2 3", "--pretty"],
    ["witness", *F4, "--levi", "descents", "--cap", "1"],
    ["witness", *F4, "--levi", "descents", "--cap", "1", "--pretty"],
    ["witness", *A2, "--levi", "1", "--cap", "-1"],
]

# Weights with a coordinate of 1000 give packed character fields of 14 bits on
# G2 (where a_21 = -3) and 16 bits on E8 (8 fields); the decompose runs
# straighten terms by W_I walks, and the last is refused, naming w(lambda).
G2 = ["--type", "G2"]
E8 = ["--type", "E8"]
WIDE_COORDINATES = [
    ["demazure", *G2, "--word", "1 2", "--weight", "1000 1"],
    ["decompose", *G2, "--word", "1 2 1", "--weight", "3 1000", "--levi", "1"],
    ["mf-check", *G2, "--word", "2 1 2", "--weight", "1000 3", "--levi", "2"],
    ["demazure", *E8, "--word", "8 7", "--weight", "0 0 0 0 0 0 1 1000"],
    ["decompose", *E8, "--word", "6 7 8 6", "--weight", "0 0 0 0 0 3 1000 0", "--levi", "6"],
    ["decompose", *E8, "--word", "7 6 8 7 6", "--weight", "0 0 0 0 0 1 1 1000", "--levi", "6 7"],
]


def widest_packings():
    # w0 of each type, with I its full descent set: d is the identity.  B50
    # packs w(rho) into 400 bits, the widest int of any type.  The packed
    # from_word, inverse and multiply run on the same widest ints.
    from levispherical import (
        build_root_system, from_word, identity, inverse, longest_parabolic, multiply,
    )
    for name, roots in (("A50", 1275), ("B50", 2500), ("C50", 2500), ("D50", 2450), ("E8", 120)):
        spec = build_root_system(name)
        w0 = longest_parabolic(spec, range(1, spec.rank + 1))
        r = json.loads(census(f"{name} classify of w0", [
            "-m", "levispherical", "classify", "--type", name,
            "--word", " ".join(map(str, w0.word)), "--levi", "descents",
        ]))
        if (r["d_word"], r["spherical"], r["len_w0I"], r["len_w"]) != ([], True, roots, roots):
            sys.exit(f"{name}: classify of w0: {r}")
        packed = from_word(spec, w0.word), inverse(spec, w0), multiply(spec, w0, w0)
        if packed != (w0, w0, identity(spec)):
            sys.exit(f"{name}: from_word, inverse or multiply of w0 is wrong")
        print(f"{name}: w0 of length {roots} is spherical over its descents, d = []; "
              "from_word(word of w0) = w0, inverse(w0) = w0, w0 w0 = identity")


# One entry per pin, in the order of the workflow's steps.
PINS = {
    "digests": digests,
    "e7-enumeration": lambda: census(
        "E7 enumeration", ["-c", E7_COUNT], last="2903040", within_mb=110),
    "e7-descents": e7_descents,
    "e6-battery": lambda: census(
        "E6 battery census", [*E6_BATTERY, "--sample", "0.02"],
        sha256="a7eb18770c3be57ecb1b1d63826fa747f13a1b15519d2658682ea6d5bc6ee60f"),
    "d6-all": lambda: census(
        "D6 all-subsets census", [*CENSUS, "--type", "D6", "--levi", "all"],
        sha256="a84f3ab482766b9234d2f434297154d993a6df46f1482b443615482cff34a6b3"),
    "e6-all": lambda: census(
        "E6 all-subsets census", [*CENSUS, "--type", "E6", "--levi", "all"],
        sha256="3238e7eae0bea6585be17e4a6ec22493a0e080ddf6629fa2ac585c93e05371d0", within_mb=40),
    "e6-rho": lambda: print(census(
        "E6 complete cross-check at rho",
        [*CENSUS, "--type", "E6", "--levi", "descents", "--battery", "rho", "--sample", "1"],
        sha256="373359b52cbf4b0afb8a7b7844186862fa8c8f1c70794528894f769410cd292b", within_mb=70)),
    "mf-at-rho": mf_at_rho,
    "word-commands": lambda: transcript(
        "word-command", WORD_COMMANDS,
        "d4ea40c510f95360d95564d75f14f5ac56721e3b34d576f8768596c9eb77e879"),
    "wide-coordinates": lambda: transcript(
        "wide-coordinate", WIDE_COORDINATES,
        "e935124682a214f17adabb568a530ab8d086d2187b9a483125d3fe010591ea8f"),
    "widest-packings": widest_packings,
    "e6-battery-memory": lambda: census(
        "E6 battery census at sample 0.2", [*E6_BATTERY, "--sample", "0.2"], within_mb=60),
}


def main(args):
    if len(args) == 1 and args[0] in PINS:
        sys.path.insert(0, SRC)
        PINS[args[0]]()
        return 0
    if args:
        sys.exit(f"usage: python tests/pins.py [NAME], NAME one of: {', '.join(PINS)}")
    sys.stdout.reconfigure(line_buffering=True)
    failed, t0 = [], time.perf_counter()
    for name in PINS:
        lap = time.perf_counter()
        code = subprocess.run([sys.executable, __file__, name]).returncode
        if code:
            failed.append(name)
        print(f"== {name}: {'FAILED' if code else 'ok'}, {time.perf_counter() - lap:.1f} s")
    print(f"{len(PINS) - len(failed)} of {len(PINS)} pins ok in {time.perf_counter() - t0:.1f} s")
    if failed:
        sys.exit(f"failed pins: {', '.join(failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
