"""Independent oracles for the test suite.

Nothing here goes through the library's word or character machinery: the
dimension oracle uses only the Cartan matrix and the positive-root list via
the Weyl dimension formula, the counting oracles are closed-form classical
formulas, the census oracle is Macdonald's product for the Poincare
polynomial and the acyclic orientations of the Dynkin forest for the
Coxeter elements, the root-coordinate oracles reflect roots letter by
letter with the Cartan matrix, the type-A oracle models the Weyl group as
the symmetric group on 1..n+1 acting by adjacent transpositions, and the
Demazure oracle applies the three-case monomial rule term by term to the
Cartan matrix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def positive_root_count(family: str, n: int) -> int:
    return {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "E": {6: 36, 7: 63, 8: 120}.get(n, 0),
        "F": 24,
        "G": 6,
    }[family]


def group_order(family: str, n: int) -> int:
    import math

    return {
        "A": math.factorial(n + 1),
        "B": 2**n * math.factorial(n),
        "C": 2**n * math.factorial(n),
        "D": 2 ** (n - 1) * math.factorial(n),
        "E": {6: 51_840, 7: 2_903_040, 8: 696_729_600}.get(n, 0),
        "F": 1152,
        "G": 12,
    }[family]


def positive_root_set(spec) -> frozenset:
    """The positive roots as a set, for membership tests."""
    return frozenset(spec.positive_roots)


def root_support(v) -> frozenset[int]:
    """Nodes (1-based) whose simple root occurs in v with nonzero coefficient."""
    return frozenset(i + 1 for i, c in enumerate(v) if c != 0)


def phi_plus_of_subset(spec, nodes) -> frozenset:
    """Positive roots supported on the node subset: the positive system of W_I."""
    nodes = frozenset(nodes)
    if not all(1 <= i <= spec.rank for i in nodes):
        raise ValueError(f"node indices {sorted(nodes)} out of range 1..{spec.rank}")
    return frozenset(v for v in spec.positive_roots if root_support(v) <= nodes)


def _reflect_root(cartan, v, j):
    """s_j(v) in simple-root coordinates, j 1-based: only coordinate j changes."""
    cj = v[j - 1] - sum(cartan[k][j - 1] * c for k, c in enumerate(v))
    return v[: j - 1] + (cj,) + v[j:]


def rows(w):
    """Matrix of w on the root lattice, simple-root basis: column j is w(alpha_j).

    Built from the Cartan matrix and the word of w, letter by letter.
    """
    cartan = w.spec.cartan_matrix
    n = len(cartan)
    columns = []
    for j in range(n):
        v = tuple(int(k == j) for k in range(n))
        for i in reversed(w.word):
            v = _reflect_root(cartan, v, i)
        columns.append(v)
    return tuple(zip(*columns))


def left_inversions(spec, w) -> frozenset:
    """Phi^+ intersect w(Phi^-): the positive roots that w^{-1} sends negative."""
    out = []
    for alpha in spec.positive_roots:
        v = alpha
        # w^{-1} = s_ik ... s_i1, so the first letter of w's word acts first.
        for i in w.word:
            v = _reflect_root(spec.cartan_matrix, v, i)
        if any(c < 0 for c in v):
            out.append(alpha)
    return frozenset(out)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(a, b):
    """a / b for integer coefficient lists, b monic; raises unless b divides a."""
    a, quot = list(a), [0] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = a[k + len(b) - 1]
        for j, y in enumerate(b):
            a[k + j] -= quot[k] * y
    if any(a):
        raise ArithmeticError("polynomial division leaves a remainder")
    return quot


def poincare_polynomial(roots):
    """Macdonald: prod over positive roots of [ht + 1]_q / [ht]_q, as coefficients.

    [m]_q = 1 + q + ... + q^(m-1); the heights are coordinate sums in the
    simple-root basis, so any positive system (a parabolic one too) works.
    """
    num, den = [1], [1]
    for alpha in roots:
        h = sum(alpha)
        num = _poly_mul(num, [1] * (h + 1))
        den = _poly_mul(den, [1] * h)
    return _poly_div_exact(num, den)


def coxeter_elements(cartan) -> list[tuple[int, frozenset]]:
    """(length, left descents) of every standard Coxeter element.

    A standard Coxeter element with support J is an acyclic orientation of
    the Dynkin forest on J (a -> b when s_a comes before s_b in its word).
    Its length is |J|, and its left descents are the sources: the letters
    that no neighbour precedes.
    """
    n = len(cartan)
    out = []
    for k in range(n + 1):
        for support in itertools.combinations(range(1, n + 1), k):
            edges = [
                (a, b)
                for a, b in itertools.combinations(support, 2)
                if cartan[a - 1][b - 1]
            ]
            for flips in itertools.product((False, True), repeat=len(edges)):
                heads = {a if flip else b for (a, b), flip in zip(edges, flips)}
                out.append((k, frozenset(support) - heads))
    return out


def census_oracle(spec) -> dict:
    """The closed-form part of an all-subsets census summary.

    by_length elements are the coefficients of P_W(q).  The w with I in
    D_L(w) are w_0(I) times a minimal coset representative, so by_length
    pairs are the coefficients of sum over I of q^(N_I) P_W / P_(W_I), with
    N_I = |Phi^+_I|.  The toric pairs (I empty, w a standard Coxeter
    element) with support J are the acyclic orientations of the Dynkin
    forest on J, 2^edges(J) of them (Shi, 1997).  The spherical pairs are
    the (I, c) with c a standard Coxeter element whose left descents miss
    I, since d = c must be a minimal coset representative; such a pair has
    w = w_0(I) c of length N_I + length(c).
    """
    n = spec.rank
    p_w = poincare_polynomial(spec.positive_roots)
    coxeter = coxeter_elements(spec.cartan_matrix)
    pairs = [0] * len(p_w)
    spherical = [0] * len(p_w)
    for k in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), k):
            roots_i = phi_plus_of_subset(spec, subset)
            cosets = _poly_div_exact(p_w, poincare_polynomial(roots_i))
            for deg, c in enumerate(cosets):
                pairs[len(roots_i) + deg] += c
            for size, descents in coxeter:
                if descents.isdisjoint(subset):
                    spherical[len(roots_i) + size] += 1
    return {
        "group_order": sum(p_w),
        "pair_count": sum(pairs),
        "spherical_count": sum(spherical),
        "toric_count": len(coxeter),
        "by_length": {
            str(deg): {"elements": e, "pairs": p, "spherical": s}
            for deg, (e, p, s) in enumerate(zip(p_w, pairs, spherical))
        },
    }


def symmetrizer(cartan) -> list[Fraction]:
    """d_i with d_i C[i][j] = d_j C[j][i], by propagation over the diagram."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                todo.append(j)
    assert all(x is not None and x > 0 for x in d)
    return d  # type: ignore[return-value]


def weyl_dimension(cartan, positive_roots, lam) -> int:
    """dim V_lam = prod over Phi^+ of <lam+rho, a^vee> / <rho, a^vee>.

    With lam in fundamental-weight coordinates and a = sum c_i alpha_i,
    <mu, a^vee> is proportional to sum_i c_i mu_i d_i, and the length
    normalization cancels between numerator and denominator.
    """
    d = symmetrizer(cartan)
    dim = Fraction(1)
    for alpha in positive_roots:
        num = sum(c * (l + 1) * di for c, l, di in zip(alpha, lam, d))
        den = sum(c * di for c, di in zip(alpha, d))
        dim *= Fraction(num, den)
    assert dim.denominator == 1 and dim > 0
    return int(dim)


def demazure_step(cartan, i, terms):
    """pi_i on a {weight: coeff} dict by the three-case monomial rule.

    With k = mu_i and alpha_i row i of the Cartan matrix, pi_i e^mu is
    e^mu + e^(mu - alpha_i) + ... + e^(mu - k alpha_i) for k >= 0, zero for
    k = -1, and -(e^(mu + alpha_i) + ... + e^(mu + (-k-1) alpha_i)) for
    k <= -2.  Returns the nonzero terms and the number of distinct weights
    the expansion touched, zeros included.
    """
    row = cartan[i - 1]
    out: dict = {}
    for mu, c in terms.items():
        k = mu[i - 1]
        if k >= 0:
            shifts, sign = range(0, -k - 1, -1), 1
        else:
            shifts, sign = range(1, -k), -1
        for j in shifts:
            nu = tuple(m + j * a for m, a in zip(mu, row))
            out[nu] = out.get(nu, 0) + sign * c
    return {nu: c for nu, c in out.items() if c}, len(out)


def demazure_oracle(cartan, lam, word):
    """pi_{i1}(...(pi_{ik}(e^lam))...) for word = (i1, ..., ik).

    Returns the character and the largest number of weights one step
    touched, zeros included.
    """
    terms, most = {tuple(lam): 1}, 0
    for i in reversed(word):
        terms, touched = demazure_step(cartan, i, terms)
        most = max(most, touched)
    return terms, most


# Type A as the symmetric group.  A permutation is a tuple p with p[x-1]
# = w(x); s_i transposes the values i and i+1.


def sym_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 2))


def sym_gen(n: int, i: int) -> tuple[int, ...]:
    p = list(range(1, n + 2))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def sym_compose(u, v) -> tuple[int, ...]:
    """(uv)(x) = u(v(x))."""
    return tuple(u[v[x] - 1] for x in range(len(u)))


def sym_eval_word(n: int, word) -> tuple[int, ...]:
    p = sym_identity(n)
    for i in word:
        p = sym_compose(p, sym_gen(n, i))
    return p


def sym_length(p) -> int:
    """Inversion count of the one-line notation."""
    return sum(
        1
        for a, b in itertools.combinations(range(len(p)), 2)
        if p[a] > p[b]
    )


def sym_left_descents(n: int, p) -> set[int]:
    """{i : length(s_i p) < length(p)}, straight from the definition."""
    return {
        i
        for i in range(1, n + 1)
        if sym_length(sym_compose(sym_gen(n, i), p)) < sym_length(p)
    }


def sym_longest_parabolic(n: int, subset) -> tuple[int, ...]:
    """Brute force: the longest element of the subgroup generated by subset."""
    gens = [sym_gen(n, i) for i in subset]
    group = {sym_identity(n)}
    frontier = list(group)
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = sym_compose(p, g)
                if q not in group:
                    group.add(q)
                    fresh.append(q)
        frontier = fresh
    return max(group, key=sym_length)


def sym_is_standard_coxeter(n: int, p) -> bool:
    """Does p admit a reduced word with pairwise distinct letters?"""
    for k in range(n + 1):
        for letters in itertools.permutations(range(1, n + 1), k):
            if sym_eval_word(n, letters) == p and sym_length(p) == k:
                return True
    return False


def a_type_census(n: int) -> dict:
    """Ground-truth sphericality census of type A_n, fully brute force.

    Returns pairs keyed by (permutation, levi subset) -> spherical flag,
    plus the element list.
    """
    elements = [tuple(p) for p in itertools.permutations(range(1, n + 2))]
    pairs: dict[tuple, bool] = {}
    for p in elements:
        descents = sorted(sym_left_descents(n, p))
        for k in range(len(descents) + 1):
            for subset in itertools.combinations(descents, k):
                w0i = sym_longest_parabolic(n, subset)
                d = sym_compose(w0i, p)
                pairs[(p, subset)] = sym_is_standard_coxeter(n, d)
    return {"elements": elements, "pairs": pairs}
