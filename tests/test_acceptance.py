"""Acceptance gate: one test per shipped criterion, time budgets enforced.

Each test asserts both the mathematical outcome and its wall-clock budget,
so `pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion.  Random checks are seeded and reproducible.
"""

import itertools
import random
import time
from contextlib import contextmanager

from levispherical import (
    WeightPoly,
    classify,
    demazure_char,
    demazure_op,
    enumerate_group,
    from_word,
    left_descents,
    length,
    levi_irreducible_char,
    longest_parabolic,
    multiply,
    reduced_word,
    reflect_weight,
    run_census,
    simple_reflection,
    witness_search,
)
from conftest import random_element, random_length_additive_pair, spec_of
from oracles import (
    a_type_census,
    left_inversions,
    phi_plus_of_subset,
    rows,
    sym_eval_word,
    weyl_dimension,
)

BATTERY_TYPES = ["A1", "A2", "A3", "B2", "B3", "G2", "D4", "F4"]


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def test_criterion_01_e8_example():
    with budget(1.0):
        spec = spec_of("E8")
        w = from_word(
            spec, [2, 3, 4, 2, 3, 4, 5, 4, 2, 3, 1, 4, 5, 6, 7, 6, 8, 7, 6]
        )
        assert sorted(left_descents(spec, w)) == [2, 3, 4, 5, 7, 8]
        res = classify(spec, w, [2, 3, 4, 5, 7, 8])
        assert res.spherical
        assert from_word(spec, res.d_word) == from_word(spec, [1, 6, 7, 8])
        assert (res.len_w, res.len_w0I, res.len_d) == (19, 15, 4)


def test_criterion_02_f4_examples():
    with budget(1.0):
        spec = spec_of("F4")
        first = classify(
            spec,
            from_word(spec, [4, 3, 4, 2, 3, 4, 2, 3, 2, 1, 2, 3, 4]),
            [2, 3, 4],
        )
        assert first.spherical
        assert from_word(spec, first.d_word) == from_word(spec, [1, 2, 3, 4])
        assert first.len_w0I == 9
        second = classify(
            spec,
            from_word(spec, [2, 1, 4, 3, 2, 1, 3, 2, 4, 3, 2, 1]),
            [2, 4],
        )
        assert not second.spherical
        assert second.len_d == 10
        assert len(second.support_d) == 4


def test_criterion_03_d4_example():
    with budget(1.0):
        spec = spec_of("D4")
        res = classify(spec, from_word(spec, [3, 2, 3, 4, 2, 1, 2]), [2, 3])
        assert not res.spherical
        assert res.len_d == 4
        assert from_word(spec, res.d_word) == from_word(spec, [4, 2, 1, 2])
        assert res.support_d == (1, 2, 4)


def test_criterion_04_inversion_identities():
    with budget(60.0):
        rng = random.Random(4)
        for type_str in BATTERY_TYPES:
            spec = spec_of(type_str)
            n = spec.rank
            for w in enumerate_group(spec):
                assert len(left_inversions(spec, w)) == length(spec, w)
            for k in range(n + 1):
                for subset in itertools.combinations(range(1, n + 1), k):
                    w0i = longest_parabolic(spec, subset)
                    assert left_inversions(spec, w0i) == phi_plus_of_subset(
                        spec, subset
                    )
            for _ in range(1000):
                u, v = random_length_additive_pair(spec, rng)
                uv = multiply(spec, u, v)
                assert length(spec, uv) == length(spec, u) + length(spec, v)
                iu = left_inversions(spec, u)
                matrix = rows(u)
                mapped = {
                    tuple(
                        sum(matrix[r][k] * alpha[k] for k in range(n))
                        for r in range(n)
                    )
                    for alpha in left_inversions(spec, v)
                }
                assert iu.isdisjoint(mapped)
                assert iu | mapped == left_inversions(spec, uv)


def test_criterion_05_census_hypothesis_invariant():
    with budget(300.0):
        for type_str in BATTERY_TYPES:
            # Any length-additivity violation raises inside run_census.
            summary = run_census(spec_of(type_str))
            assert summary.pair_count >= summary.group_order


def test_criterion_06_a2_ground_truth():
    with budget(1.0):
        spec = spec_of("A2")
        records = []
        run_census(spec, records_out=records)
        oracle = a_type_census(2)
        got = {
            (sym_eval_word(2, r.w_word), r.levi): r.spherical for r in records
        }
        assert got == oracle["pairs"]
        bad = [(w, s) for (w, s), ok in got.items() if not ok]
        assert bad == [((3, 2, 1), ())]


def test_criterion_07_demazure_operator_algebra():
    with budget(30.0):
        rng = random.Random(7)
        braids = {
            "A2": ((1, 2, 1), (2, 1, 2)),
            "B2": ((1, 2, 1, 2), (2, 1, 2, 1)),
            "G2": ((1, 2, 1, 2, 1, 2), (2, 1, 2, 1, 2, 1)),
        }

        def rand_poly(spec):
            return WeightPoly(
                {
                    tuple(rng.randint(-4, 4) for _ in range(spec.rank)):
                    rng.choice([-3, -2, -1, 1, 2, 3])
                    for _ in range(5)
                }
            )

        def ops(spec, word, f):
            for i in reversed(word):
                f = demazure_op(spec, f, i)
            return f

        for type_str, (left, right) in braids.items():
            spec = spec_of(type_str)
            for _ in range(200):
                f = rand_poly(spec)
                for i in (1, 2):
                    once = demazure_op(spec, f, i)
                    assert demazure_op(spec, once, i) == once
                assert ops(spec, left, f) == ops(spec, right, f)

        b3 = spec_of("B3")
        lam = (1, 1, 1)
        for _ in range(100):
            w = random_element(b3, rng)
            canonical = reduced_word(b3, w)
            alt = []
            v = w
            while length(b3, v) > 0:
                i = max(left_descents(b3, v))
                alt.append(i)
                v = multiply(b3, simple_reflection(b3, i), v)
            assert from_word(b3, alt) == w
            mono = WeightPoly.monomial(lam)
            assert ops(b3, canonical, mono) == ops(b3, tuple(alt), mono)


def test_criterion_08_dimension_oracle():
    with budget(60.0):
        for type_str in ("A2", "B2", "G2", "A3", "D4"):
            spec = spec_of(type_str)
            n = spec.rank
            w0 = longest_parabolic(spec, range(1, n + 1))
            lams = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            lams += [(1,) * n, (2,) * n]
            for lam in lams:
                want = weyl_dimension(
                    spec.cartan_matrix, spec.positive_roots, lam
                )
                assert demazure_char(spec, lam, w0).mass() == want
        assert demazure_char(
            spec_of("A2"), (1, 1), longest_parabolic(spec_of("A2"), (1, 2))
        ).mass() == 8
        assert levi_irreducible_char(spec_of("G2"), (1, 0), (1, 2)).mass() == 7


def test_criterion_09_multiplicity_free_consistency():
    with budget(600.0):
        from levispherical import is_multiplicity_free

        for type_str in ("B3", "D4"):
            spec = spec_of(type_str)
            n = spec.rank
            battery = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            battery.append((1,) * n)
            records = []
            run_census(spec, records_out=records)
            for rec in records:
                if not rec.spherical:
                    continue
                w = from_word(spec, rec.w_word)
                for lam in battery:
                    assert is_multiplicity_free(spec, lam, w, rec.levi), (
                        type_str, rec.w_word, rec.levi, lam,
                    )


def test_criterion_10_d4_witness():
    with budget(300.0):
        spec = spec_of("D4")
        w = from_word(spec, [3, 2, 3, 4, 2, 1, 2])
        found = witness_search(spec, w, (2, 3), coeff_cap=2)
        if found is None:  # escalation path, per the shipped contract
            found = witness_search(spec, w, (2, 3), coeff_cap=3)
        assert found is not None
        assert found.multiplicity >= 2
        assert all(c >= 0 for c in found.lam)


def test_criterion_11_levi_symmetry():
    with budget(60.0):
        rng = random.Random(11)
        for type_str in ("B3", "D4"):
            spec = spec_of(type_str)
            for _ in range(50):
                w = random_element(spec, rng)
                descents = sorted(left_descents(spec, w))
                subset = tuple(i for i in descents if rng.random() < 0.7)
                lam = tuple(rng.randint(0, 2) for _ in range(spec.rank))
                ch = demazure_char(spec, lam, w)
                terms = ch.as_dict()
                for i in subset:
                    assert {
                        reflect_weight(spec, wt, i): c
                        for wt, c in terms.items()
                    } == terms


def test_criterion_12_performance():
    start = time.perf_counter()
    summary = run_census(spec_of("F4"))
    f4_elapsed = time.perf_counter() - start
    assert summary.group_order == 1152
    assert f4_elapsed < 2.0, f"F4 census took {f4_elapsed:.1f}s"

    start = time.perf_counter()
    summary = run_census(spec_of("E6"), levi_mode="full-descent-only")
    e6_elapsed = time.perf_counter() - start
    assert summary.group_order == 51_840
    assert summary.pair_count == 51_840
    assert e6_elapsed < 30.0, f"E6 census took {e6_elapsed:.1f}s"
