"""Root-system data for the finite Cartan types, in exact integer arithmetic.

Conventions, fixed once for the whole package:

* Types are the finite families A (rank 1..50), B (2..50), C (3..50),
  D (4..50), E (rank 6, 7, 8), F (rank 4), G (rank 2).  Nodes are
  numbered 1..n in Bourbaki order: B_n and C_n put the doubled bond at the
  end of the chain (node n is short in B_n, long in C_n), D_n attaches both
  n-1 and n to node n-2 (so D4 has node 2 in the middle), E puts node 2 on
  the branch attached to node 4, F4 is the chain 1 - 2 => 3 - 4, and G2 has
  node 1 short.

* The Cartan matrix is C[i][j] = <alpha_i, alpha_j^vee>.  The simple
  reflection s_j therefore acts on roots by

      s_j(alpha_i) = alpha_i - C[i][j] * alpha_j,

  and in the fundamental-weight basis alpha_i = sum_j C[i][j] * omega_j,
  i.e. row i of the Cartan matrix is alpha_i written in weight coordinates.

* A root is an integer coordinate vector in the simple-root basis.  A root
  is positive iff all coordinates are >= 0; every root is either positive
  or the negative of a positive root.  No Euclidean realization is used
  anywhere: all computations are integer-exact.

Positive roots are generated by closure: start from the simple roots and
repeatedly apply simple reflections, keeping every image with all
coordinates nonnegative, until nothing new appears.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

RootVector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class InvalidCartanType(ValueError):
    """Raised for unknown families or ranks outside the finite range."""


# Valid rank range per family, inclusive.  A-D stop at rank 50: the positive
# roots are closed eagerly, at a cost that grows about as rank**4.
_RANK_RANGE: dict[str, tuple[int, int]] = {
    "A": (1, 50),
    "B": (2, 50),
    "C": (3, 50),
    "D": (4, 50),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class CartanType:
    """A finite Cartan type, e.g. CartanType('D', 4).

    >>> str(CartanType("F", 4))
    'F4'
    """

    family: str
    rank: int

    def __post_init__(self) -> None:
        rng = _RANK_RANGE.get(self.family)
        if rng is None:
            raise InvalidCartanType(f"unknown family {self.family!r}")
        # bool is refused too: CartanType("A", True) == CartanType("A", 1), so
        # it would take the place of A1 in the interned specs.
        if not is_int(self.rank):
            raise InvalidCartanType(f"rank {self.rank!r} is not an int")
        lo, hi = rng
        if not lo <= self.rank <= hi:
            raise InvalidCartanType(
                f"rank {self.rank} out of range for family {self.family}"
            )

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_cartan_type(text: str) -> CartanType:
    """Parse a type string such as 'A5', 'd4' or 'E8' (case-insensitive)."""
    m = re.fullmatch(r"\s*([A-Za-z])\s*(\d+)\s*", text)
    if m is None:
        raise InvalidCartanType(f"cannot parse Cartan type from {text!r}")
    return CartanType(m.group(1).upper(), int(m.group(2)))


def _dynkin_edges(ct: CartanType) -> list[tuple[int, int, int, int]]:
    """Bonds of the Dynkin diagram as (i, j, c_ij, c_ji), 1-indexed.

    c_ij is the Cartan entry C[i][j] = <alpha_i, alpha_j^vee> for the bond.
    """
    fam, n = ct.family, ct.rank
    chain = [(i, i + 1, -1, -1) for i in range(1, n)]
    if fam == "A":
        return chain
    if fam == "B":
        # Node n is short: <alpha_{n-1}, alpha_n^vee> = -2.
        chain[-1] = (n - 1, n, -2, -1)
        return chain
    if fam == "C":
        # Node n is long: transpose of the B_n bond.
        chain[-1] = (n - 1, n, -1, -2)
        return chain
    if fam == "D":
        chain = [(i, i + 1, -1, -1) for i in range(1, n - 1)]
        chain.append((n - 2, n, -1, -1))
        return chain
    if fam == "E":
        edges = [(1, 3, -1, -1), (2, 4, -1, -1)]
        edges += [(i, i + 1, -1, -1) for i in range(3, n)]
        return edges
    if fam == "F":
        return [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
    # G2, the one family left.  Node 1 short: <alpha_2, alpha_1^vee> = -3.
    return [(1, 2, -1, -3)]


def _cartan_matrix(ct: CartanType) -> Matrix:
    n = ct.rank
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, cij, cji in _dynkin_edges(ct):
        rows[i - 1][j - 1] = cij
        rows[j - 1][i - 1] = cji
    return tuple(tuple(r) for r in rows)


def _positive_root_count(ct: CartanType) -> int:
    """Classical count of positive roots, used as a consistency check."""
    n = ct.rank
    return {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "E": {6: 36, 7: 63, 8: 120}[n] if ct.family == "E" else 0,
        "F": 24,
        "G": 6,
    }[ct.family]


def root_reflection(cartan: Matrix, v: RootVector, j: int) -> RootVector:
    """s_j(v) for v in simple-root coordinates, j 0-based and unchecked.

    Only coordinate j changes: c_j -> c_j - sum_k C[k][j] c_k.
    """
    cj = v[j] - sum(cartan[k][j] * c for k, c in enumerate(v) if c)
    return v[:j] + (cj,) + v[j + 1 :]


def _close_positive_roots(cartan: Matrix) -> tuple[RootVector, ...]:
    """All positive roots, by reflection closure from the simple roots."""
    n = len(cartan)
    simple = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    found: set[RootVector] = set(simple)
    frontier = list(simple)
    while frontier:
        fresh: list[RootVector] = []
        for v in frontier:
            for j in range(n):
                w = root_reflection(cartan, v, j)
                if w[j] < 0:
                    continue
                if w not in found:
                    found.add(w)
                    fresh.append(w)
        frontier = fresh
    return tuple(sorted(found, key=lambda v: (sum(v), v)))


@dataclass(frozen=True, eq=False)
class RootSystemSpec:
    """Immutable root-system data; built once per type via build_root_system.

    Instances are interned (one per Cartan type), so identity comparison and
    the default object hash are correct and fast.
    """

    cartan_type: CartanType
    cartan_matrix: Matrix
    positive_roots: tuple[RootVector, ...]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @cached_property
    def weight_bonds(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each node j (0-based): the (k, C[j][k]) with k != j, entry nonzero.

        alpha_j in weight coordinates is row j of the Cartan matrix, so these
        are the coordinates other than j that s_j changes on a weight.
        """
        return tuple(
            tuple((k, a) for k, a in enumerate(row) if k != j and a)
            for j, row in enumerate(self.cartan_matrix)
        )

    @cached_property
    def coxeter_number(self) -> int:
        """h = 2|Phi+|/rank; h - 1 is the height of the highest root and coroot."""
        return 2 * len(self.positive_roots) // self.rank

    @cached_property
    def height_functional(self) -> tuple[int, ...]:
        """2 rho^vee in simple-coroot coordinates, so u . alpha_i = 2 for all i.

        For a weight x in fundamental-weight coordinates, u . x = <x, 2 rho^vee>
        is twice the height of x (the sum of its simple-root coordinates).
        The positive coroots are the positive roots of the transposed Cartan
        matrix, and 2 rho^vee is their sum.
        """
        coroots = _close_positive_roots(tuple(zip(*self.cartan_matrix)))
        return tuple(map(sum, zip(*coroots)))

    def __repr__(self) -> str:
        return f"RootSystemSpec({self.cartan_type})"


@lru_cache(maxsize=None)
def _build(ct: CartanType) -> RootSystemSpec:
    cartan = _cartan_matrix(ct)
    roots = _close_positive_roots(cartan)
    if len(roots) != _positive_root_count(ct):
        raise RuntimeError(
            f"root closure of {ct} found {len(roots)} positive roots, "
            f"formula says {_positive_root_count(ct)}"
        )
    return RootSystemSpec(ct, cartan, roots)


def build_root_system(ct: CartanType | str) -> RootSystemSpec:
    """The root system of a Cartan type; accepts 'B3' style strings too."""
    if isinstance(ct, str):
        ct = parse_cartan_type(ct)
    return _build(ct)


def is_int(x) -> bool:
    """An int proper: bool is an int subclass but never an index or coordinate."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_ordered(x) -> bool:
    """Exactly a list or tuple: the one form of a word, a weight or a battery.

    A set, dict or generator has no order its caller wrote, and a str or
    bytes iterates as characters, so each is refused, not read in order.
    """
    return type(x) in (list, tuple)


def node_index(spec: RootSystemSpec, i) -> int:
    """The 0-based index of node i; ValueError unless i is an int in 1..rank."""
    if not is_int(i):
        raise ValueError(f"node index {i!r} is not an int")
    if not 1 <= i <= spec.rank:
        raise ValueError(f"node index {i} out of range 1..{spec.rank}")
    return i - 1


def validate_node_subset(spec: RootSystemSpec, nodes) -> tuple[int, ...]:
    """Sorted, deduplicated node tuple; rejects indices outside 1..rank.

    ValueError, naming the input, also for a node set that is not iterable
    and for an index that is not an int.
    """
    try:
        nodes = list(nodes)
    except TypeError:
        raise ValueError(f"node set {nodes!r} is not a collection of indices") from None
    bad = [i for i in nodes if not is_int(i)]
    if bad:
        raise ValueError(f"node indices {bad}: {bad[0]!r} is not an int")
    bad = [i for i in nodes if not 1 <= i <= spec.rank]
    if bad:
        raise ValueError(
            f"node indices {bad} out of range 1..{spec.rank} for {spec.cartan_type}"
        )
    return tuple(sorted(set(nodes)))


def simple_root_in_weight_basis(spec: RootSystemSpec, i: int) -> tuple[int, ...]:
    """alpha_i in fundamental-weight coordinates: row i of the Cartan matrix."""
    return spec.cartan_matrix[node_index(spec, i)]
