"""Independent oracles for the test suite.

Nothing here goes through the library's word or character machinery: the
dimension oracle uses only the Cartan matrix and the positive-root list via
the Weyl dimension formula, the counting oracles are closed-form classical
formulas, the type-A oracle models the Weyl group as the symmetric
group on 1..n+1 acting by adjacent transpositions, and the Demazure oracle
applies the three-case monomial rule term by term to the Cartan matrix.
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
