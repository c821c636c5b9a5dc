import time

import pytest

from levispherical import (
    CartanType,
    InvalidCartanType,
    build_root_system,
    parse_cartan_type,
    simple_root_in_weight_basis,
)
from oracles import (
    phi_plus_of_subset,
    positive_root_count,
    positive_root_set,
    root_support,
)

ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4",
    "C3", "C4",
    "D4", "D5",
    "E6", "E7", "E8",
    "F4", "G2",
]


@pytest.mark.parametrize("type_str", ALL_TYPES)
def test_positive_root_counts(type_str):
    spec = build_root_system(type_str)
    ct = spec.cartan_type
    assert len(spec.positive_roots) == positive_root_count(ct.family, ct.rank)
    assert len(positive_root_set(spec)) == len(spec.positive_roots)


@pytest.mark.parametrize("type_str", ALL_TYPES)
def test_roots_are_nonnegative_and_contain_simples(type_str):
    spec = build_root_system(type_str)
    n = spec.rank
    for v in spec.positive_roots:
        assert all(c >= 0 for c in v) and any(c > 0 for c in v)
    for i in range(n):
        simple = tuple(int(j == i) for j in range(n))
        assert simple in positive_root_set(spec)


@pytest.mark.parametrize("type_str", ALL_TYPES)
def test_closure_is_reflection_stable(type_str):
    # Applying any simple reflection to any root lands in Phi^+ or -Phi^+.
    spec = build_root_system(type_str)
    n = spec.rank
    roots = positive_root_set(spec)
    for v in spec.positive_roots:
        for j in range(n):
            cj = v[j] - sum(spec.cartan_matrix[k][j] * v[k] for k in range(n))
            w = v[:j] + (cj,) + v[j + 1 :]
            if all(c >= 0 for c in w):
                assert w in roots
            else:
                assert tuple(-c for c in w) in roots


def test_cartan_conventions():
    # B3: node 3 short, so C[2][3] = -2 and C[3][2] = -1.
    b3 = build_root_system("B3").cartan_matrix
    assert b3[1][2] == -2 and b3[2][1] == -1
    # C3 is the transpose of B3.
    c3 = build_root_system("C3").cartan_matrix
    assert c3[1][2] == -1 and c3[2][1] == -2
    assert c3 == tuple(zip(*b3))
    # F4: chain 1 - 2 => 3 - 4.
    f4 = build_root_system("F4").cartan_matrix
    assert f4[1][2] == -2 and f4[2][1] == -1
    assert f4[0][1] == f4[1][0] == -1 and f4[2][3] == f4[3][2] == -1
    # G2: node 1 short.
    g2 = build_root_system("G2").cartan_matrix
    assert g2 == ((2, -1), (-3, 2))
    # D4: node 2 is the center.
    d4 = build_root_system("D4").cartan_matrix
    for i in (1, 3, 4):
        assert d4[i - 1][1] == -1 and d4[1][i - 1] == -1
    assert d4[0][2] == d4[0][3] == d4[2][3] == 0
    # E8: node 2 hangs off node 4; chain is 1-3-4-5-6-7-8.
    e8 = build_root_system("E8").cartan_matrix
    assert e8[1][3] == e8[3][1] == -1
    assert e8[0][2] == e8[2][0] == -1
    assert e8[0][1] == e8[1][0] == 0
    for i in range(3, 8):
        assert e8[i - 1][i] == e8[i][i - 1] == -1


def test_highest_roots():
    # The unique height-maximal root, in simple-root coordinates.
    assert build_root_system("G2").positive_roots[-1] == (3, 2)
    assert build_root_system("F4").positive_roots[-1] == (2, 3, 4, 2)
    assert build_root_system("E8").positive_roots[-1] == (2, 3, 4, 6, 5, 4, 3, 2)
    assert build_root_system("A3").positive_roots[-1] == (1, 1, 1)
    assert build_root_system("B3").positive_roots[-1] == (1, 2, 2)
    assert build_root_system("C3").positive_roots[-1] == (2, 2, 1)
    assert build_root_system("D4").positive_roots[-1] == (1, 2, 1, 1)


def test_parse_cartan_type():
    assert str(parse_cartan_type("d4")) == "D4"
    assert str(parse_cartan_type(" E8 ")) == "E8"
    assert parse_cartan_type("b12").rank == 12
    for bad in ("H3", "A0", "B1", "C2", "D3", "E5", "E9", "F5", "G3", "A", "4", "AA2"):
        with pytest.raises(InvalidCartanType):
            parse_cartan_type(bad)


def test_classical_ranks_stop_at_50():
    assert len(build_root_system("A50").positive_roots) == 50 * 51 // 2
    for family in "ABCD":
        message = f"rank 51 out of range for family {family}"
        with pytest.raises(InvalidCartanType, match=message):
            parse_cartan_type(f"{family}51")
    start = time.perf_counter()
    with pytest.raises(InvalidCartanType):
        build_root_system("A1000000")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("rank", [2.5, True, "2", None])
def test_a_rank_that_is_not_an_int_is_refused(rank):
    # CartanType("A", True) == CartanType("A", 1): had it been accepted, the
    # interned spec of A1 would have become the spec of "ATrue".
    with pytest.raises(InvalidCartanType, match="is not an int"):
        CartanType("A", rank)
    a1 = build_root_system("A1")
    assert str(a1.cartan_type) == "A1" and type(a1.rank) is int


def test_spec_repr_names_the_type():
    assert repr(build_root_system("F4")) == "RootSystemSpec(F4)"


def test_build_interns_specs():
    assert build_root_system("B3") is build_root_system("b3")


def test_phi_plus_of_subset():
    a2 = build_root_system("A2")
    assert phi_plus_of_subset(a2, [1, 2]) == positive_root_set(a2)
    assert phi_plus_of_subset(a2, [1]) == {(1, 0)}
    assert phi_plus_of_subset(a2, []) == frozenset()
    d4 = build_root_system("D4")
    # Nodes {2,3} span an A2 subsystem, {1,3,4} a disconnected A1 x A1 x A1.
    assert len(phi_plus_of_subset(d4, [2, 3])) == 3
    assert len(phi_plus_of_subset(d4, [1, 3, 4])) == 3
    assert len(phi_plus_of_subset(d4, [1, 2, 3, 4])) == 12
    f4 = build_root_system("F4")
    assert len(phi_plus_of_subset(f4, [2, 3, 4])) == 9
    with pytest.raises(ValueError):
        phi_plus_of_subset(a2, [0])
    with pytest.raises(ValueError):
        phi_plus_of_subset(a2, [3])


def test_root_support():
    assert root_support((1, 0, 1)) == {1, 3}
    assert root_support((0, 0)) == frozenset()


def test_simple_root_in_weight_basis():
    a2 = build_root_system("A2")
    assert simple_root_in_weight_basis(a2, 1) == (2, -1)
    assert simple_root_in_weight_basis(a2, 2) == (-1, 2)
    g2 = build_root_system("G2")
    assert simple_root_in_weight_basis(g2, 2) == (-3, 2)
    with pytest.raises(ValueError):
        simple_root_in_weight_basis(a2, 0)


@pytest.mark.parametrize("type_str", ALL_TYPES)
def test_height_functional(type_str):
    # u . alpha_i is the same positive constant for every node i.
    spec = build_root_system(type_str)
    u = spec.height_functional
    vals = {
        sum(a * b for a, b in zip(u, simple_root_in_weight_basis(spec, i)))
        for i in range(1, spec.rank + 1)
    }
    assert len(vals) == 1 and vals.pop() > 0
