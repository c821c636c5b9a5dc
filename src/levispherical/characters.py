"""Demazure characters and Levi-module decompositions, in exact arithmetic.

Weights live in fundamental-weight coordinates: lambda = (lambda_1, ...,
lambda_n) means sum_i lambda_i omega_i, so lambda_i = <lambda, alpha_i^vee>.
In these coordinates alpha_i is row i of the Cartan matrix and the simple
reflection acts by s_i(lambda) = lambda - lambda_i * alpha_i.

The isobaric Demazure operator pi_i acts on a monomial e^lambda with
k = lambda_i by the string rule

    k >= 0 :  e^lambda + e^(lambda - alpha_i) + ... + e^(lambda - k alpha_i)
    k = -1 :  0
    k <= -2:  -(e^(lambda + alpha_i) + ... + e^(lambda + (-k-1) alpha_i))

which is the monomial expansion of (f - e^(-alpha_i) s_i f)/(1 - e^(-alpha_i)).
pi_i is idempotent, satisfies the braid relations, and its output is
s_i-symmetric.

The rule is applied one alpha_i-string at a time.  Index the weights of a
string by their coordinate p = nu_i.  A term c*e^lambda adds +c over the
positions k, k-2, ..., -k when k >= 0, and -c over -k-2, ..., k+2 when
k <= -2: in both cases a symmetric interval [-K, K] with K = k or -k-2.
Collecting the signed inputs of one string as g[K], the output coefficient
at p is the suffix sum of g over K >= |p|, so each string is walked once
from its top and mirrored by s_i.  The term ceiling counts every weight a
step touches, zeros included: K_max + 1 weights per string.

For a reduced word w = s_{i1} s_{i2} ... s_{ik} the Demazure character of
the module with extreme weight w(lambda) is

    pi_{i1}( pi_{i2}( ... pi_{ik}( e^lambda ) ... ) ),

i.e. the operators are applied innermost-first from the right end of the
word.  The composite depends only on w, not on the chosen reduced word, and
is invariant under s_i for every left descent i of w.

Levi decompositions straighten under the W_I dot action.  pi_{w_0(I)} e^mu
is +-chi_I(u.mu), the character of the irreducible L_I-module of highest
weight u.mu = u(mu + rho) - rho for the u in W_I making it L_I-dominant, with
sign (-1)^length(u); it is 0 when mu + rho is I-singular (Demazure character
formula for w_0(I); Brauer-Klimyk straightening, Humphreys, Introduction to
Lie Algebras, section 24); the chamber walk of weyl over I finds u and the
parity of its length.  A W_I-invariant f equals pi_{w_0(I)} f, so
straightening every term of f gives its L_I-multiplicities.  pi_x e^lambda =
e^lambda for every x in the stabiliser W_lambda, so the Demazure character
of w at a dominant lambda depends only on the orbit point p = w(lambda).
Every character is composed one way, from its orbit point: the chamber walk
from p back to lambda spells j1 ... jk, the canonical word of the minimal
representative of the coset w W_lambda, and the character is
pi_{j1}(...(pi_{jk}(e^lambda))...), so the stabiliser costs no step; at a
regular lambda the walk spells reduced_word(w).  The irreducible
L_I-character of an L_I-dominant mu is pi_{w_0(I)} e^mu, composed the same
way from w_0(I)(mu) by the walk over I.  The character at p is
s_i-invariant iff p_i <= 0; when that holds for every i in I, q = w_0(I)(p)
is I-dominant and pi_w e^lambda = pi_{w_0(I)} of the character at q
(length-additive; Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop.
2.4.4), so straightening the much smaller character at q gives the
multiplicities; for I inside the left descents of w, q = d(lambda) with
d = w_0(I) w.  The walk from the next point s_j p spells the rest of p's
letters, so the character at p is pi_j of the character there.  Only a
cross-check keeps what it composes: one memo for its whole stream, keyed by
the packed point and bounded by the number of terms it holds, builds each
orbit point once, in one operator step from the next point of its walk.
Straightening adds an L_I-dominant term as it stands and drops one with an
I-coordinate equal to -1 (mu + rho on a wall); only the rest are walked.
Decompositions list their highest weights in descending order of height,
then of grade (coordinate sum), then lexicographically.

Inside every computation a weight is one int, packed by weyl._layout(spec,
bound) like w(rho) but with a wider bound: a coordinate is a shift and a
mask, mu - h alpha_i is one subtraction of h times the packed alpha_i, a
W_I walk is _Layout.walk over the sign bits of I, and a term dict is keyed
by ints.  Tuples appear only at the public edge: demazure_char,
levi_irreducible_char and demazure_op unpack once at the end,
decompose_levi packs its input once, decompose_demazure unpacks its
entries, and is_multiplicity_free and witness_search unpack only the
entries of multiplicity >= 2.  The bound comes from a lemma: if every
input coordinate is at most M in absolute value, nothing a computation
reaches passes (h - 1)(M + 1), h the Coxeter number.  For a weight x and w
in W, (w x)_j = <x, w^-1 alpha_j^vee> with w^-1 alpha_j^vee a coroot up to
sign, whose simple-coroot coefficients sum to at most h - 1, the height of
the highest coroot; so the orbit of x stays within (h - 1) max |x_i|, and so
does its hull, coordinates being linear.  A pi_i step writes only weights
between mu and s_i mu.  The characters along a word from a dominant lam
(or from an L_I-dominant mu, along the word of w_0(I)) are Demazure
characters, in the hull of the orbit of lam, with M = max lam.  A W_I walk
of mu + rho stays in the orbit of mu + rho: for an input term its
coordinates are at most M + 1, and for a weight mu of a character at lam,
mu + rho lies in hull W(lam) + hull W(rho), which is hull W(lam + rho).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from operator import lshift, mul
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from .rootsys import (
    RootSystemSpec,
    is_int,
    node_index,
    validate_node_subset,
)
from .sphericality import _check_descents
from .weyl import (
    WeylElement,
    _Layout,
    _layout,
    _w0_word,
    apply_word,
    reduced_word,
)

Weight = tuple[int, ...]


class NonDominantWeight(ValueError):
    """A weight failed the dominance requirement of the operation."""


class NotLeviCharacter(ValueError):
    """The input is not a character of an L_I-module.

    Some s_i with i in I moves it, or its straightening under the W_I dot
    action leaves a negative multiplicity.
    """


class CharacterBudgetExceeded(RuntimeError):
    """A character grew past the term ceiling, DEFAULT_TERM_CEILING."""


# The one character budget.  Every character path and every command reads
# these when it runs: no step of pi_i may touch more than DEFAULT_TERM_CEILING
# weights, and a witness search tries at most DEFAULT_LAMBDA_BUDGET weights.
DEFAULT_WITNESS_CAP = 2
DEFAULT_LAMBDA_BUDGET = 10_000
DEFAULT_TERM_CEILING = 5_000_000


def weight_sort_key(wt: Weight) -> tuple[int, Weight]:
    """Graded-lexicographic sort key (grade = coordinate sum)."""
    return (sum(wt), wt)


class WeightPoly:
    """A finite integer combination of weights, immutable once built.

    Terms with coefficient zero are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Weight, int] | None = None) -> None:
        self._terms = {wt: c for wt, c in (terms or {}).items() if c != 0}

    @classmethod
    def monomial(cls, wt: Weight) -> "WeightPoly":
        return cls({tuple(wt): 1})

    @classmethod
    def _wrap(cls, terms: dict[Weight, int]) -> "WeightPoly":
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    def coeff(self, wt: Weight) -> int:
        return self._terms.get(tuple(wt), 0)

    def items(self):
        return self._terms.items()

    def weights(self):
        return self._terms.keys()

    def as_dict(self) -> dict[Weight, int]:
        return dict(self._terms)

    def mass(self) -> int:
        """Sum of all coefficients (the dimension, for a module character)."""
        return sum(self._terms.values())

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self._terms.items(), key=lambda kv: weight_sort_key(kv[0]))

    def to_json_obj(self) -> list[dict]:
        return [
            {"weight": list(wt), "coeff": c} for wt, c in self.sorted_items()
        ]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, WeightPoly):
            return self._terms == other._terms
        return NotImplemented

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{c}*e{wt}" for wt, c in self.sorted_items()[:6]
        )
        more = "" if len(self._terms) <= 6 else f", ... ({len(self._terms)} terms)"
        return f"WeightPoly({inside}{more})"


class DecompositionEntry(NamedTuple):
    mu: Weight
    multiplicity: int


@dataclass(frozen=True)
class MultiplicityCheck:
    """Outcome of a multiplicity-freeness test, with a witness if it fails."""

    multiplicity_free: bool
    witness: Optional[Weight]
    multiplicity: Optional[int]

    def __bool__(self) -> bool:
        return self.multiplicity_free


class Witness(NamedTuple):
    """A highest weight whose Demazure module is not multiplicity-free."""

    lam: Weight
    mu: Weight
    multiplicity: int


def _check_weight(spec: RootSystemSpec, wt) -> Weight:
    try:
        wt = tuple(wt)
    except TypeError:  # not iterable: reported below like any other miss
        pass
    if type(wt) is not tuple or len(wt) != spec.rank or not all(map(is_int, wt)):
        raise ValueError(
            f"weight {wt!r} is not an integer vector of rank {spec.rank}"
        )
    return wt


def _check_weights(spec: RootSystemSpec, weights) -> None:
    """_check_weight on every weight of a collection.

    One pass over plain-int tuples of the right length; on any miss the
    per-weight loop runs, so the error names the first bad weight.
    """
    try:
        if set(map(len, weights)) <= {spec.rank} and set(
            map(type, chain.from_iterable(weights))
        ) <= {int}:
            return
    except TypeError:
        pass
    for wt in weights:
        _check_weight(spec, wt)


def _check_dominant(spec: RootSystemSpec, lam) -> Weight:
    lam = _check_weight(spec, lam)
    if not is_dominant(lam):
        raise NonDominantWeight(f"weight {lam} is not dominant")
    return lam


def reflect_weight(spec: RootSystemSpec, wt, i: int) -> Weight:
    """s_i(wt) = wt - wt_i * alpha_i, in fundamental-weight coordinates."""
    wt = _check_weight(spec, wt)
    return apply_word(spec, (node_index(spec, i) + 1,), wt)


def _reach(weights) -> int:
    """The largest absolute coordinate of the weights, 0 if there are none.

    The coordinate columns are freed on return, before the caller packs.
    """
    columns = list(zip(*weights))
    return max(max(map(max, columns), default=0), -min(map(min, columns), default=0))


def _weight_layout(spec: RootSystemSpec, m: int) -> _Layout:
    """The packing for a computation whose inputs have coordinates within +-m.

    By the bound lemma (module docstring) nothing it reaches passes
    (h - 1)(m + 1); the bound is rounded up to 2**b - 1, all a field of
    b + 1 bits holds, so there is one layout per field width.
    """
    reach = (spec.coxeter_number - 1) * (m + 1)
    return _layout(spec, (1 << reach.bit_length()) - 1)


def _packed(
    spec: RootSystemSpec, terms: Mapping[Weight, int]
) -> tuple[_Layout, dict[int, int]]:
    """Checked terms packed by the layout of their largest absolute coordinate.

    Returns the layout and the packed terms.  The layout's bound covers
    every coordinate of the terms by construction, so they skip the
    per-weight check of _Layout.pack.
    """
    lay = _weight_layout(spec, _reach(terms))
    top, shifts = lay.top, lay.shifts
    return lay, {top + sum(map(lshift, wt, shifts)): c for wt, c in terms.items()}


def _unpacked(lay: _Layout, terms: Mapping[int, int]) -> dict[Weight, int]:
    """The packed terms as weights, in the same order: one coordinate at a time."""
    field, bias = lay.field, lay.bias
    columns = [[((p >> s) & field) - bias for p in terms] for s in lay.shifts]
    return dict(zip(zip(*columns), terms.values()))


def is_dominant(wt: Weight) -> bool:
    return all(x >= 0 for x in wt)


def is_levi_dominant(wt: Weight, levi) -> bool:
    return all(wt[i - 1] >= 0 for i in levi)


def _apply_op(lay: _Layout, i: int, terms: Mapping[int, int]) -> dict[int, int]:
    """pi_i on a packed term dict, one alpha_i-string at a time.

    A string is keyed by its centre, the weight with coordinate i in {0, 1}.
    c*e^mu adds sign*c to g[K] of its string; the coefficient at position
    p >= 0 is the suffix sum of g over K >= p, and s_i mirrors it to -p.
    Moving along a string adds or subtracts the packed alpha_i.  More than
    DEFAULT_TERM_CEILING touched weights, zeros included, raises before the
    output is built.
    """
    shift, alpha = lay.reflection[i]
    field, bias = lay.field, lay.bias
    strings: dict[int, dict[int, int]] = {}
    for mu, c in terms.items():
        k = ((mu >> shift) & field) - bias
        if k == -1:
            continue
        centre = mu - (k >> 1) * alpha
        if k < 0:
            k, c = -k - 2, -c
        g = strings.get(centre)
        if g is None:
            strings[centre] = {k: c}
        elif k in g:
            g[k] += c
        else:
            g[k] = c
    ceiling = DEFAULT_TERM_CEILING
    if sum(map(max, strings.values())) + len(strings) > ceiling:
        raise CharacterBudgetExceeded(
            f"character exceeded the {ceiling}-term ceiling"
        )
    out: dict[int, int] = {}
    for centre, g in strings.items():
        # nu runs from position top down to the centre's 0 or 1, and mirror
        # from -top up to -1 or 0.
        top = max(g)
        up = top >> 1
        nu = centre + up * alpha
        mirror = centre - (up + (top & 1)) * alpha
        s = 0
        for p in range(top, -1, -2):
            if p in g:
                s += g[p]
            if s:
                out[nu] = s
                if p:
                    out[mirror] = s
            nu -= alpha
            mirror += alpha
    return out


def demazure_op(spec: RootSystemSpec, f: WeightPoly, i: int) -> WeightPoly:
    """Apply pi_i to a weight polynomial."""
    i = node_index(spec, i) + 1
    _check_weights(spec, f.weights())
    lay, terms = _packed(spec, f._terms)
    return WeightPoly._wrap(_unpacked(lay, _apply_op(lay, i, terms)))


# The term bound of the memo a cross-check makes for the packed characters
# at the orbit points of dominant weights.  It bounds the memory: the
# complete E6 full-descent cross-check at rho stores 3,404 characters of
# 196,003 terms in all and evicts none; they take about 14 MB packed
# (sys.getsizeof of the dicts and their keys; 25 MB with tuple weights).
_D_CHAR_TERMS = 200_000


class _TermMemo:
    """An insertion-ordered memo that holds at most `bound` terms in all.

    cross_check makes one for its whole stream; no other call keeps the
    characters it composes.  The bound defaults to _D_CHAR_TERMS as it
    stands when the memo is made.  A value is a term dict, which no caller
    mutates.  Storing past the bound drops the oldest entries first; a dict
    longer than the bound is not stored.
    """

    def __init__(self, bound: Optional[int] = None) -> None:
        self.bound = _D_CHAR_TERMS if bound is None else bound
        self.held = 0
        self.entries: OrderedDict[tuple, dict[int, int]] = OrderedDict()

    def put(self, key: tuple, terms: dict[int, int]) -> None:
        size = len(terms)
        if size > self.bound:
            return
        while self.held + size > self.bound:
            self.held -= len(self.entries.popitem(last=False)[1])
        self.entries[key] = terms
        self.held += size


def _orbit_char(
    lay: _Layout, point: int, head: int, memo: Optional[_TermMemo] = None
) -> dict[int, int]:
    """The packed character at point, composed along its chamber walk over head.

    The one composer of characters.  The walk over the nodes whose sign bits
    head holds spells j1 ... jk from point to the point q where it stops,
    and the character is pi_{j1}(...(pi_{jk}(e^q))...): for head = lay.top
    and point = x(lam), the character of x at the dominant lam; for head =
    lay.mask(I) and point = w_0(I)(mu), pi_{w_0(I)} e^mu.  Without a memo
    nothing is kept.  A memo, which only the cross-check passes and only
    with head = lay.top, is keyed by (lay, packed point): it serves one root
    system under one term ceiling, and the layout makes the packed point
    unambiguous.  With j the first letter from a point p != q, the walk from
    s_j p spells the rest of p's letters, so the character at p is pi_j of
    the character at s_j p.  So a held point is returned before any walk,
    a miss walks only to the first point the memo holds, and the operators
    applied back up the path store every point they pass: each orbit point
    costs one operator step per memo.
    """
    entries = {} if memo is None else memo.entries
    key = (lay, point)
    terms = entries.get(key)
    if terms is not None:
        return terms
    passed = []
    for i in lay.walk(point, head)[0]:
        passed.append((i, key))
        point = lay.apply((i,), point)
        key = (lay, point)
        terms = entries.get(key)
        if terms is not None:
            break
    else:
        terms = {point: 1}  # the walk ends at q
    for i, key in reversed(passed):
        terms = _apply_op(lay, i, terms)
        if memo is not None:
            memo.put(key, terms)
    return terms


def demazure_char(spec: RootSystemSpec, lam, w: WeylElement) -> WeightPoly:
    """Character of the Demazure module with extreme weight w(lam).

    lam must be dominant.  The coefficient of e^lam in the result is 1, the
    result is independent of the reduced word used for w, and it is
    s_i-symmetric for every left descent i of w.  It is composed from the
    orbit point w(lam), by _orbit_char over every node: at a singular lam
    the walk skips the stabiliser, so E6's w0 at omega_1 takes 16 operator
    steps, not the 36 of a reduced word.  Like every character path, it
    raises CharacterBudgetExceeded when one operator step touches more than
    DEFAULT_TERM_CEILING weights.
    """
    lam = _check_dominant(spec, lam)
    lay = _weight_layout(spec, max(lam))
    point = lay.apply(reduced_word(spec, w), lay.pack(lam))
    return WeightPoly._wrap(_unpacked(lay, _orbit_char(lay, point, lay.top)))


def levi_irreducible_char(spec: RootSystemSpec, mu, levi) -> WeightPoly:
    """Character of the irreducible L_I-module with highest weight mu.

    mu must be L_I-dominant (mu_i >= 0 for i in I); coordinates off I are
    unconstrained and ride along as a torus character.  It is pi_{w_0(I)}
    e^mu, composed from the point w_0(I)(mu) by _orbit_char over the nodes
    of I, so the stabiliser of mu in W_I costs no step.  A top coefficient
    other than 1 is a broken invariant and raises RuntimeError.
    """
    mu = _check_weight(spec, mu)
    subset = validate_node_subset(spec, levi)
    if not is_levi_dominant(mu, subset):
        raise NonDominantWeight(
            f"weight {mu} is not dominant for levi nodes {list(subset)}"
        )
    lay = _weight_layout(spec, _reach((mu,)))
    top = lay.pack(mu)
    point = lay.apply(_w0_word(spec, subset), top)
    terms = _orbit_char(lay, point, lay.mask(subset))
    if terms.get(top) != 1:
        raise RuntimeError(
            f"levi character of {mu} over {list(subset)} has top "
            f"coefficient {terms.get(top, 0)}, not 1"
        )
    return WeightPoly._wrap(_unpacked(lay, terms))


def _entry_key(spec: RootSystemSpec) -> Callable[[Weight], tuple]:
    """Order of decomposition entries: height of mu, then grade, then mu."""
    u = spec.height_functional
    return lambda mu: (sum(map(mul, u, mu)), sum(mu), mu)


def _straighten(
    lay: _Layout, terms: Mapping[int, int], subset: tuple[int, ...]
) -> dict[int, int]:
    """pi_{w_0(I)} of packed terms as L_I-multiplicities, by the W_I dot action.

    A term c*e^mu whose I-coordinates are all >= 0 (every I sign bit set)
    is L_I-dominant and adds c at mu as it stands.  One with an
    I-coordinate equal to -1 puts mu + rho on a wall of the chamber, so it
    straightens to 0 and is dropped.  Every other term walks mu + rho into
    the closed L_I-dominant chamber, one sign flip of c per reflection; an
    I-singular end point contributes nothing.  Returns the nonzero
    multiplicities as a packed {mu: mult}, unsorted: each caller unpacks,
    orders or scans only what it uses.  A negative multiplicity raises
    NotLeviCharacter naming the negative mu of largest _entry_key, the first
    one in decompose_levi's order, whatever the order of terms.
    """
    if not subset:
        mults = dict(terms)
    else:
        head = lay.mask(subset)
        ones = lay.ones
        # low holds every bit of the I-fields below their sign bits.  In
        # (x & low) + low a sign bit is set iff the bits below it in x are
        # not all clear.  A coordinate of v is 0 iff its field is the bias,
        # so iff its field in x = v ^ head is 0; once the walk has set every
        # I sign bit of v, iff its bits below the sign bit are clear.
        low = head - (head >> (lay.bits - 1))
        walk = lay.walk
        mults = {}
        for mu, c in terms.items():
            if not head & ~mu:
                mults[mu] = mults.get(mu, 0) + c
                continue
            v = mu + ones
            x = v ^ head
            if (((x & low) + low) | x) & head != head:
                continue
            letters, v = walk(v, head)
            if len(letters) & 1:
                c = -c
            if ((v & low) + low) & head == head:
                nu = v - ones
                mults[nu] = mults.get(nu, 0) + c
    if min(mults.values(), default=0) < 0:
        negative = {lay.unpack(nu): m for nu, m in mults.items() if m < 0}
        nu = max(negative, key=_entry_key(lay.spec))
        raise NotLeviCharacter(
            f"weight {nu} has negative multiplicity {negative[nu]}"
        )
    return {nu: m for nu, m in mults.items() if m}


def _first_repeat(
    lay: _Layout, mults: dict[int, int]
) -> tuple[Optional[Weight], Optional[int]]:
    """(mu, mult) for the first mu of multiplicity >= 2 in decompose_levi's order.

    (None, None) when there is none.  Only the entries of multiplicity >= 2
    are unpacked.
    """
    repeats = {lay.unpack(nu): m for nu, m in mults.items() if m >= 2}
    mu = max(repeats, key=_entry_key(lay.spec), default=None)
    return mu, repeats.get(mu)


def _is_reflection_invariant(lay: _Layout, terms: Mapping[int, int], i: int) -> bool:
    """Is the packed term dict fixed by the simple reflection of node i?

    s_i swaps the weights with coordinate i positive and those with it
    negative, and fixes the rest.  Stored coefficients are never 0, so the
    dict is invariant iff every term of the positive side meets its
    reflection with the same coefficient and both sides are equally many.
    """
    shift, alpha = lay.reflection[i]
    field, bias = lay.field, lay.bias
    balance = 0
    for wt, c in terms.items():
        k = ((wt >> shift) & field) - bias
        if k > 0:
            if terms.get(wt - k * alpha) != c:
                return False
            balance += 1
        elif k:
            balance -= 1
    return not balance


def decompose_levi(
    spec: RootSystemSpec, f: WeightPoly, levi
) -> tuple[DecompositionEntry, ...]:
    """Write f as a sum of irreducible L_I-characters with multiplicities.

    f must be s_i-invariant for every i in I.  Every weight is validated in
    one pass, and invariance under each s_i is checked by pairing: only the
    terms with mu_i > 0 are reflected, and they must be as many as the terms
    with mu_i < 0.  Each term is then straightened under the W_I dot action
    (see the module docstring), and only the resulting entries are sorted.
    The entries reconstruct f exactly, f = sum of mult *
    levi_irreducible_char(mu), and come in descending order of the height of
    mu, then of its coordinate sum, then lexicographically.  A non-invariant
    f, or one with a negative multiplicity, is not an L_I-character and
    raises NotLeviCharacter; the message names the smallest i in I that
    moves f and the smallest moved weight in weight_sort_key order, or the
    first negative entry in the order above, whatever the order of f's terms.
    """
    subset = validate_node_subset(spec, levi)
    terms = f._terms
    _check_weights(spec, terms)
    lay, packed = _packed(spec, terms)
    for i in subset:
        if _is_reflection_invariant(lay, packed, i):
            continue
        moved = [
            wt
            for wt, c in terms.items()
            if terms.get(apply_word(spec, (i,), wt), 0) != c
        ]
        wt = min(moved, key=weight_sort_key)
        raise NotLeviCharacter(
            f"the input is not s_{i}-invariant: coefficient {terms[wt]} at {wt}"
        )
    return _sorted_entries(lay, _straighten(lay, packed, subset))


def _sorted_entries(
    lay: _Layout, mults: dict[int, int]
) -> tuple[DecompositionEntry, ...]:
    """The packed {mu: mult} of _straighten as entries in decompose_levi's order."""
    mults = _unpacked(lay, mults)
    order = sorted(mults, key=_entry_key(lay.spec), reverse=True)
    return tuple(DecompositionEntry(nu, mults[nu]) for nu in order)


def _levi_straightener(
    spec: RootSystemSpec,
    w: WeylElement,
    subset: tuple[int, ...],
    memo: Optional[_TermMemo] = None,
) -> Callable[[Weight], tuple[_Layout, dict[int, int]]]:
    """lam -> L_I-multiplicities of the Demazure module of (lam, w).

    subset is a validated I.  With p = w(lam), only the character at
    w_0(I)(p) is composed, by _orbit_char (with the cross-check's memo, if
    given), and straightened (module docstring).  Takes a checked dominant
    lam and returns its layout and the packed, unsorted {mu: mult} of
    _straighten; the smallest i in I with p_i > 0, where the character is
    not s_i-invariant, raises NotLeviCharacter.
    """
    w_word = reduced_word(spec, w)
    w0i_word = _w0_word(spec, subset)

    def multiplicities(lam: Weight) -> tuple[_Layout, dict[int, int]]:
        lay = _weight_layout(spec, max(lam))
        point = lay.apply(w_word, lay.pack(lam))
        image = lay.unpack(point)
        for i in subset:
            if image[i - 1] > 0:
                raise NotLeviCharacter(
                    f"the Demazure character is not s_{i}-invariant: "
                    f"coordinate {i} of w(lambda) = {image} is positive"
                )
        point = lay.apply(w0i_word, point)
        return lay, _straighten(lay, _orbit_char(lay, point, lay.top, memo), subset)

    return multiplicities


def decompose_demazure(
    spec: RootSystemSpec, lam, w: WeylElement, levi
) -> tuple[DecompositionEntry, ...]:
    """The Demazure module of dominant lam and w as L_I-irreducibles.

    For any I, only the character at w_0(I)(w(lam)) is expanded and
    straightened.  NotLeviCharacter names the smallest i in I at which
    w(lam) has a positive coordinate, where the character is not
    s_i-invariant.  Entries come in decompose_levi's order.
    """
    lam = _check_dominant(spec, lam)
    subset = validate_node_subset(spec, levi)
    multiplicities = _levi_straightener(spec, w, subset)
    return _sorted_entries(*multiplicities(lam))


def is_multiplicity_free(
    spec: RootSystemSpec, lam, w: WeylElement, levi
) -> MultiplicityCheck:
    """Is the Demazure module for (lam, w) multiplicity-free over L_I?

    Requires lam dominant and I inside the left descent set of w, else
    LeviNotInDescents.  Only the character at w_0(I)(w(lam)) = d(lam),
    d = w_0(I) w, is expanded, each step bounded by DEFAULT_TERM_CEILING.
    The witness is the first repeated entry of the sorted decomposition,
    found without sorting it.
    """
    lam = _check_dominant(spec, lam)
    subset = _check_descents(spec, w, levi)
    multiplicities = _levi_straightener(spec, w, subset)
    mu, m = _first_repeat(*multiplicities(lam))
    return MultiplicityCheck(mu is None, mu, m)


@lru_cache(maxsize=8)
def _dominant_weights_graded(rank: int, cap: int, budget: int) -> tuple[Weight, ...]:
    """The first budget dominant weights with coordinates <= cap, graded-lex.

    The first is always lam = 0.  Cached per (rank, cap, budget), so a
    cross-check builds the list once, not once per search; cap is user
    input, so each entry holds at most budget weights.
    """

    def parts(total: int, n: int) -> Iterator[tuple[int, ...]]:
        if n == 1:
            if total <= cap:
                yield (total,)
            return
        for first in range(min(total, cap) + 1):
            for rest in parts(total - first, n - 1):
                yield (first,) + rest

    graded = chain.from_iterable(parts(total, rank) for total in range(rank * cap + 1))
    return tuple(islice(graded, budget))


def _first_witness(multiplicities, rank: int, coeff_cap: int) -> Optional[Witness]:
    """The lam loop of witness_search over multiplicities, a _levi_straightener.

    Tries the weights of _dominant_weights_graded after lam = 0, within
    DEFAULT_LAMBDA_BUDGET, and skips a lam whose character passes the term
    ceiling; None when no lam has a multiplicity >= 2.
    """
    weights = _dominant_weights_graded(rank, coeff_cap, DEFAULT_LAMBDA_BUDGET)
    for lam in islice(weights, 1, None):
        try:
            lay, mults = multiplicities(lam)
        except CharacterBudgetExceeded:
            continue
        mu, m = _first_repeat(lay, mults)
        if mu is not None:
            return Witness(lam, mu, m)
    return None


def witness_search(
    spec: RootSystemSpec,
    w: WeylElement,
    levi,
    coeff_cap: int = DEFAULT_WITNESS_CAP,
) -> Optional[Witness]:
    """Search for a dominant lam whose Demazure module has a multiplicity >= 2.

    Scans dominant weights with coordinates <= coeff_cap in graded-lex order
    and returns the first witness found.  lam = 0 comes first and counts
    against the budget, but its module is trivial, never a witness, so it is
    neither expanded nor straightened.  I must lie inside the left descents
    of w, else LeviNotInDescents; each other lam expands only the character
    at d(lam), d = w_0(I) w.  The search reads the one lambda budget and the
    one term ceiling of this module when it runs, the same pair that every
    character path and command obeys: it tries at most DEFAULT_LAMBDA_BUDGET
    weights and skips a lam whose character passes DEFAULT_TERM_CEILING.
    Exhausting the budget returns None, which is inconclusive: it is NOT a
    certificate of multiplicity-freeness.  A coeff_cap that is not an int
    (bool included) is rejected with ValueError, and so is one below 1,
    which would try nothing: a cap of 0 holds only lam = 0.
    """
    if not is_int(coeff_cap):
        raise ValueError(f"witness coefficient cap {coeff_cap!r} is not an integer")
    if coeff_cap < 0:
        raise ValueError(f"witness coefficient cap {coeff_cap} is negative")
    if coeff_cap == 0:
        raise ValueError(
            "witness coefficient cap 0 holds only lambda = 0, never a witness"
        )
    subset = _check_descents(spec, w, levi)
    multiplicities = _levi_straightener(spec, w, subset)
    return _first_witness(multiplicities, spec.rank, coeff_cap)


def decomposition_to_json(entries) -> list[dict]:
    """Decomposition entries as JSON objects {"mu": [...], "mult": m}.

    The objects come in ascending weight_sort_key order of mu (coordinate
    sum, then lexicographically), whatever the order of entries; this is
    not decompose_levi's descending order by height.
    """
    return [
        {"mu": list(mu), "mult": m}
        for mu, m in sorted(entries, key=lambda e: weight_sort_key(e[0]))
    ]
