"""Independent oracles for the test suite.

Nothing here goes through the library's word or character machinery: the
dimension oracle uses only the Cartan matrix and the positive-root list via
the Weyl dimension formula, the counting oracles are closed-form classical
formulas, the census oracle is Macdonald's product for the Poincare
polynomial and the acyclic orientations of the Dynkin forest for the
Coxeter elements (with weight reflections for the full-descent filter),
the root-coordinate oracles reflect roots letter by letter with the Cartan
matrix, the chamber walk reflects a list weight by the smallest negative
coordinate, with the bonds of the Dynkin diagram, the type-A oracle models the Weyl group as the symmetric group on
1..n+1 acting by adjacent transpositions and reads its forbidden patterns
off that brute-force census, the w_0(I) oracle ascends from rho by weight
reflections read off the Cartan matrix, the Demazure oracle applies the
three-case monomial rule term by term to the Cartan matrix, the extremal-
weight oracle reflects lam by the subwords of a reduced word, the type-A
character oracle is Kohnert's rule on diagrams, and the
invariance oracle reflects every term of a polynomial by the same weight
reflections.

The one exception is mf_at_rho_census, the loop that tests and the CI pins
(tests/pins.py) share to compare the library's multiplicity-freeness at rho
with its census's sphericality; it imports the library when it runs.
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


def longest_parabolic_ascent(cartan, subset):
    """w_0(I)(rho) in weight coordinates, by greedy ascent from rho.

    s_j(v) = v - v_j * C[j], with C[j] (row j of the Cartan matrix) the
    simple root alpha_j in weight coordinates.  While some j in I has
    v_j > 0, s_j raises the length by one; W_I is finite, so the ascent
    stops at the one element of W_I with every j in I as a left descent.
    """
    return ascend(cartan, (1,) * len(cartan), subset)


def ascend(cartan, v, subset):
    """Reflect v by the first j in I with v_j > 0 until there is none.

    For v = x(rho) each step is s_j x with length one more, so the ascent
    ends at w_0(I) x when x has no left descent in I.
    """
    while up := [j for j in subset if v[j - 1] > 0]:
        v = weight_reflect(cartan, v, up[0])
    return v


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


def coxeter_elements(cartan) -> list[tuple[tuple[int, ...], frozenset]]:
    """(a reduced word, left descents) of every standard Coxeter element.

    A standard Coxeter element with support J is an acyclic orientation of
    the Dynkin forest on J (a -> b when s_a comes before s_b in its word).
    Its word is a linear extension of the orientation, its length is |J|,
    and its left descents are the sources: the letters that no neighbour
    precedes.
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
                arrows = [
                    (b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)
                ]
                sources = frozenset(support) - {head for _, head in arrows}
                word, left = [], set(support)
                while left:
                    first = min(
                        x for x in left
                        if not any(head == x and tail in left for tail, head in arrows)
                    )
                    word.append(first)
                    left.remove(first)
                out.append((tuple(word), sources))
    return out


def census_oracle(spec, levi_mode="all-subsets") -> dict:
    """The closed-form part of a census summary.

    by_length elements are the coefficients of P_W(q).  The w with I in
    D_L(w) are w_0(I) times a minimal coset representative, so by_length
    pairs are the coefficients of sum over I of q^(N_I) P_W / P_(W_I), with
    N_I = |Phi^+_I|.  The toric pairs (I empty, w a standard Coxeter
    element) with support J are the acyclic orientations of the Dynkin
    forest on J, 2^edges(J) of them (Shi, 1997).  The spherical pairs are
    the (I, c) with c a standard Coxeter element whose left descents miss
    I, since d = c must be a minimal coset representative; such a pair has
    w = w_0(I) c of length N_I + length(c).

    In full-descent mode (levi_mode "full-descent-only") each element has
    one pair, so by_length pairs are its elements, and a spherical (I, c)
    counts only when D_L(w_0(I) c) = I: the word of c applied to rho,
    then the ascent over I, gives w_0(I) c (rho), whose negative
    coordinates are D_L(w_0(I) c).
    """
    n = spec.rank
    cartan = spec.cartan_matrix
    full = levi_mode == "full-descent-only"
    p_w = poincare_polynomial(spec.positive_roots)
    coxeter = coxeter_elements(cartan)
    pairs = list(p_w) if full else [0] * len(p_w)
    spherical = [0] * len(p_w)
    for k in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), k):
            roots_i = phi_plus_of_subset(spec, subset)
            if not full:
                cosets = _poly_div_exact(p_w, poincare_polynomial(roots_i))
                for deg, c in enumerate(cosets):
                    pairs[len(roots_i) + deg] += c
            for word, descents in coxeter:
                if not descents.isdisjoint(subset):
                    continue
                if full:
                    v = (1,) * n
                    for i in reversed(word):
                        v = weight_reflect(cartan, v, i)
                    v = ascend(cartan, v, subset)
                    if {i for i in range(1, n + 1) if v[i - 1] < 0} != set(subset):
                        continue
                spherical[len(roots_i) + len(word)] += 1
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


def chamber_walk(spec, out, active):
    """Walk the list out in place into the closed chamber of the active nodes.

    active[j] says whether node j + 1 takes part.  Each step reflects by the
    smallest active node with a negative coordinate; the letters come in the
    order applied.  s_j lowers only its bond neighbours, so the scan resumes
    at the lowest coordinate s_j changed, not at 0.  This is the reference
    for the package's packed walk (weyl._Layout.walk), on plain lists.
    """
    bonds = spec.weight_bonds
    n = len(out)
    letters = []
    j = 0
    while j < n:
        c = out[j]
        if c >= 0 or not active[j]:
            j += 1
            continue
        letters.append(j + 1)
        out[j] = -c
        nxt = j + 1
        for b, a in bonds[j]:
            out[b] -= c * a
            if b < nxt:
                nxt = b
        j = nxt
    return letters


def chamber_word(spec, wt) -> tuple[int, ...]:
    """The letters of the walk of wt over all nodes, to the dominant chamber.

    For wt = w(rho) they are the canonical reduced word of w.
    """
    return tuple(chamber_walk(spec, list(wt), (True,) * len(wt)))


def weight_reflect(cartan, v, i):
    """s_i(v) = v - v_i * C[i] in weight coordinates, i 1-based."""
    k, row = v[i - 1], cartan[i - 1]
    return tuple(x - k * a for x, a in zip(v, row))


def bruhat_orbit(cartan, lam, word) -> set[tuple[int, ...]]:
    """{x(lam) : x <= w} for a reduced word of w, by the subword property.

    The elements below w are the subwords of its reduced word, so the
    letters are taken from the right end, each as T <- T u s_i(T), starting
    from T = {lam}.  No Demazure operator is involved.  These are the
    extremal weights of the Demazure module of (lam, w): its weights in the
    orbit W(lam), each with multiplicity 1.
    """
    orbit = {tuple(lam)}
    for i in reversed(word):
        orbit |= {weight_reflect(cartan, v, i) for v in orbit}
    return orbit


def kohnert_char(lam, word) -> dict[tuple[int, ...], int]:
    """The Demazure character of (lam, w) in type A_(n-1), by Kohnert's rule.

    lam, of length n - 1, becomes the GL_n parts a_i = lam_i + ... + lam_(n-1),
    a_n = 0.  The letters of the word of w, right end first, swap positions
    i and i + 1 of a, giving the composition alpha.  The key polynomial of
    alpha is the sum of x^(row counts) over the diagrams that Kohnert moves
    reach from the diagram of alpha (row r holds the cells 1..alpha_r; a
    move takes the rightmost cell of a row down its column to the first
    empty row below; Kohnert 1990, proved by Reiner and Shimozono).  Each
    exponent e maps to the weight (e_1 - e_2, ..., e_(n-1) - e_n).
    """
    parts = [sum(lam[i:]) for i in range(len(lam))] + [0]
    for i in reversed(word):
        parts[i - 1], parts[i] = parts[i], parts[i - 1]
    start = frozenset((r, c) for r, a in enumerate(parts, 1) for c in range(1, a + 1))
    seen, todo = {start}, [start]
    while todo:
        diagram = todo.pop()
        rightmost: dict[int, int] = {}
        for r, c in diagram:
            rightmost[r] = max(c, rightmost.get(r, 0))
        for r, c in rightmost.items():
            below = next((b for b in range(r - 1, 0, -1) if (b, c) not in diagram), None)
            if below is None:
                continue
            moved = diagram - {(r, c)} | {(below, c)}
            if moved not in seen:
                seen.add(moved)
                todo.append(moved)
    out: dict[tuple[int, ...], int] = {}
    for diagram in seen:
        rows = [0] * len(parts)
        for r, _ in diagram:
            rows[r - 1] += 1
        wt = tuple(rows[i] - rows[i + 1] for i in range(len(lam)))
        out[wt] = out.get(wt, 0) + 1
    return out


def dot_straighten(cartan, terms, subset):
    """L_I-multiplicities of pi_{w_0(I)} of the terms, by the W_I dot action.

    Every term walks mu + rho into the closed L_I-dominant chamber by the
    largest node of I with a negative coordinate, flipping the sign of its
    coefficient at each reflection; an end point with a zero coordinate on
    I contributes nothing.  Returns every multiplicity, zero and negative
    ones included.
    """
    out: dict = {}
    for mu, c in terms.items():
        v = tuple(x + 1 for x in mu)
        while True:
            neg = [i for i in subset if v[i - 1] < 0]
            if not neg:
                break
            v, c = weight_reflect(cartan, v, max(neg)), -c
        if all(v[i - 1] for i in subset):
            nu = tuple(x - 1 for x in v)
            out[nu] = out.get(nu, 0) + c
    return out


def levi_symmetrise(cartan, terms, subset):
    """Sum over the terms of c times the W_I-orbit sum of their weight.

    Each orbit is closed under s_i for i in I by search, so the result is
    W_I-invariant by construction.  Zero coefficients are dropped.
    """
    out: dict = {}
    for wt, c in terms.items():
        orbit, todo = {wt}, [wt]
        while todo:
            v = todo.pop()
            for i in subset:
                u = weight_reflect(cartan, v, i)
                if u not in orbit:
                    orbit.add(u)
                    todo.append(u)
        for u in orbit:
            out[u] = out.get(u, 0) + c
    return {u: c for u, c in out.items() if c}


def first_moved_term(cartan, terms, subset):
    """The smallest i in I with s_i(f) != f and its smallest moved weight.

    Every term is reflected and compared with the coefficient found at its
    image; the moved weight is the least in (coordinate sum, weight) order.
    None when every s_i with i in I fixes f.
    """
    for i in sorted(subset):
        moved = [
            wt
            for wt, c in terms.items()
            if terms.get(weight_reflect(cartan, wt, i), 0) != c
        ]
        if moved:
            return i, min(moved, key=lambda wt: (sum(wt), wt))
    return None


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


def a_type_full_descent_failures(n: int) -> set[tuple[int, ...]]:
    """The permutations p of 1..n+1 with (p, D_L(p)) not spherical, by a_type_census."""
    census = a_type_census(n)
    return {
        p
        for p in census["elements"]
        if not census["pairs"][(p, tuple(sorted(sym_left_descents(n, p))))]
    }


def sym_patterns(p, k: int) -> set[tuple[int, ...]]:
    """The patterns of length k that p contains: its k-subsequences, standardised."""
    out = set()
    for sub in itertools.combinations(p, k):
        order = sorted(sub)
        out.add(tuple(order.index(x) + 1 for x in sub))
    return out


def mf_at_rho_census(spec):
    """(pairs, found) over the complete all-subsets census of spec.

    pairs counts the (w, I) pairs; found lists, in census order, each
    non-spherical pair that is multiplicity-free at rho as (w_word, levi,
    witness), with the first witness witness_search finds.  A spherical pair
    that is not multiplicity-free at rho raises AssertionError.
    """
    from levispherical import (
        census_records, from_word, is_multiplicity_free, start_census, witness_search,
    )

    rho = (1,) * spec.rank
    pairs, found = 0, []
    for rec in census_records(spec, start_census(spec)):
        pairs += 1
        w = from_word(spec, rec.w_word)
        if bool(is_multiplicity_free(spec, rho, w, rec.levi)) == rec.spherical:
            continue
        if rec.spherical:
            raise AssertionError(f"spherical {rec} is not multiplicity-free at rho")
        found.append((rec.w_word, rec.levi, witness_search(spec, w, rec.levi)))
    return pairs, found
