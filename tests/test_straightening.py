"""Levi decomposition by W_I dot-action straightening.

The digests and witnesses below were computed by the greedy peeler that
straightening replaced; they pin the entry order, not just the entry set.
"""

import hashlib
import json
import time
from itertools import combinations

import pytest

from levispherical import (
    characters,
    decompose_levi,
    demazure_char,
    enumerate_group,
    from_word,
    is_multiplicity_free,
    left_descents,
    longest_parabolic,
)
from levispherical.cli import main
from conftest import spec_of


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
    # I not inside D_L(w): the character of w is expanded and checked whole.
    assert main(["decompose", "--type", "A2", "--word", "", "--weight", "1 0",
                 "--levi", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == [{"mu": [1, 0], "mult": 1}]
    assert main(["decompose", "--type", "A2", "--word", "1", "--weight", "1 1",
                 "--levi", "2"]) == 1
    assert "not s_2-invariant" in capsys.readouterr().err
