"""Exact Weyl-group arithmetic on the orbit of rho.

A group element w is identified by the integer vector w(rho) in
fundamental-weight coordinates.  rho = (1, ..., 1) is regular, so w is
determined by w(rho), and three facts carry all the word machinery
(Casselman, "Machine calculations in Weyl groups", 1994; the numbers game
of Bjorner-Brenti, "Combinatorics of Coxeter Groups", ch. 4):

* i is a left descent of w  iff  coordinate i of w(rho) is negative,
* (s_i w)(rho) is the weight reflection s_i applied to w(rho),
* so length(s_i w) = length(w) + 1  iff  coordinate i is positive.

One chamber walk reflects a weight in place by the smallest node of a set
whose coordinate is negative, until none is.  Over every node it strips the
canonical reduced word of w from w(rho), smallest left descent first; over
I it spells w_0(I) from -rho.  A word acts on a weight letter by letter
from its right end, which gives evaluation of words, products and
inverses; no matrix is multiplied.

Group enumeration is breadth-first over left multiplication, which visits
elements layer by layer in length order; each layer is emitted in
lexicographic w(rho) order so the stream is deterministic.  Every element
is reached once, from its canonical parent s_m w (m its smallest left
descent), so its canonical word is the parent's with m prepended.

A group element stores w(rho) packed into one int (_Layout).  A layout
is built for a root system and a bound: every coordinate x with |x| at
most the bound gets a field of bits = bound.bit_length() + 1 bits and is
stored plus the bias B = 2**(bits - 1) > bound, so every field lies in
1..2B - 1; coordinate 1 takes the top field.  Then
* integer order is the lexicographic order of the weights,
* a coordinate is negative iff the top bit of its field, its sign bit, is
  clear, so the left descents are the clear sign bits and the smallest of
  them is the highest, found by int.bit_length(),
* s_j is one subtraction, P - (field_j - B) * A_j, with A_j the packed
  alpha_j in weight coordinates, unbiased,
* a group element x acts by one such subtraction per node j whose omega_j
  it moves, with omega_j - x(omega_j) packed in place of A_j and every
  field read from P, so w_0(I) takes |I| of them (_w0, _Layout.act).
_layout(spec) is the layout of w(rho): each coordinate of w(rho) is
<rho, beta^vee> for a coroot beta^vee, plus or minus its height, so its
absolute value is at most H = h - 1, h = 2|Phi+|/rank the Coxeter number,
and H is its bound.  E6 packs into 30 bits, E7 into 42, E8 into 48 and B50
into 400.  The packing holds only the orbit of rho, so a WeylElement is
built only here, by _element, from a word or w_0(I) applied to rho or from
the enumeration; it holds the packed int alone, and its word is stripped from
it when read.  The characters module packs its weights by
_layout(spec, bound) with the wider bound its computation reaches; pack
refuses a weight outside the bound, whose fields would wrap.  apply_word
acts on a weight as a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import lshift
from typing import Iterable, Iterator, Sequence

from .rootsys import (
    RootSystemSpec,
    is_int,
    is_ordered,
    validate_node_subset,
)

DEFAULT_ENUM_CAP = 2_000_000

Weight = tuple[int, ...]


class WordLetterError(ValueError):
    """A word letter outside 1..rank, named with its position, or no word at all."""


class CapExceeded(RuntimeError):
    """Group enumeration aborted: the group has more elements than the cap."""


@dataclass(frozen=True, init=False)
class WeylElement:
    """A Weyl-group element, identified by w(rho).

    packed is w(rho) packed by _layout(spec) (module docstring); rho_image
    is w(rho) in weight coordinates and word the canonical reduced word,
    both read from it.  Equality and hashing go by (spec, w(rho)).  There
    is no public constructor: identity, from_word, simple_reflection,
    multiply, inverse, longest_parabolic and enumerate_group build elements,
    through _element.
    """

    spec: RootSystemSpec
    packed: int

    def __repr__(self) -> str:
        return f"WeylElement({self.spec.cartan_type}, {self.rho_image!r})"

    @property
    def rho_image(self) -> Weight:
        return _layout(self.spec).unpack(self.packed)

    @property
    def word(self) -> tuple[int, ...]:
        """Canonical reduced word, stripped from w(rho)."""
        lay = _layout(self.spec)
        return lay.walk(self.packed, lay.top)[0]


def _element(spec: RootSystemSpec, packed: int) -> WeylElement:
    """The element whose packed w(rho) is packed, an int of the orbit of rho."""
    w = object.__new__(WeylElement)
    object.__setattr__(w, "spec", spec)
    object.__setattr__(w, "packed", packed)
    return w


def _check_element(spec: RootSystemSpec, w: WeylElement) -> None:
    """ValueError unless w is an element of the Weyl group of spec."""
    if not (isinstance(w, WeylElement) and w.spec is spec):
        raise ValueError(f"{w!r} is not in the Weyl group of {spec.cartan_type}")


def apply_word(spec: RootSystemSpec, word: Iterable[int], wt: Weight) -> Weight:
    """s_{i1} s_{i2} ... s_{ik} (wt): the right end of the word acts first.

    Letters are 1-based and not checked here.  The reflections update one
    list in place; the only tuple built is the result.
    """
    bonds = spec.weight_bonds
    out = list(wt)
    for i in reversed(tuple(word)):
        j = i - 1
        k = out[j]
        out[j] = -k
        for b, a in bonds[j]:
            out[b] -= k * a
    return tuple(out)


class _Layout:
    """The packing of weights into one int for one root system and bound.

    See the module docstring.  Nodes are 1-based.  top holds the sign bit
    of every field and packs the zero weight; ones holds 1 in every field,
    so top + ones packs rho.
    """

    def __init__(self, spec: RootSystemSpec, bound: int) -> None:
        n = spec.rank
        self.spec = spec
        self.bound = bound
        self.bits = bits = bound.bit_length() + 1
        self.bias = 1 << (bits - 1)
        self.field = (1 << bits) - 1
        # Node i takes the field at shift (n - i) * bits.  A mask whose
        # highest bit is the sign bit of node i has bit_length shift + bits,
        # and step maps that bit_length to node i.
        self.shifts = shifts = tuple((n - i) * bits for i in range(1, n + 1))
        alphas = [sum(map(lshift, row, shifts)) for row in spec.cartan_matrix]
        self.reflection = dict(enumerate(zip(shifts, alphas), 1))
        self.step = {s + bits: (i, s, a) for i, (s, a) in self.reflection.items()}
        self.top = self.mask(range(1, n + 1))
        self.ones = sum(1 << s for s in shifts)
        self.rho = self.top + self.ones

    def pack(self, wt: Weight) -> int:
        """The weight wt packed; OverflowError if a coordinate passes the bound.

        A coordinate outside -bound..bound would carry into or borrow from
        the next field, so it is refused, not wrapped.
        """
        if max(wt) > self.bound or min(wt) < -self.bound:
            raise OverflowError(
                f"weight {wt} has a coordinate outside -{self.bound}..{self.bound}, "
                f"the bound of its packing"
            )
        return self.top + sum(map(lshift, wt, self.shifts))

    def unpack(self, p: int) -> Weight:
        field, bias = self.field, self.bias
        return tuple(((p >> s) & field) - bias for s in self.shifts)

    def mask(self, nodes: Iterable[int]) -> int:
        """The sign bits of the given nodes."""
        return sum(self.bias << self.shifts[i - 1] for i in nodes)

    def nodes(self, mask: int) -> tuple[int, ...]:
        """The nodes whose sign bits mask holds, in increasing order.

        mask holds sign bits only.  The highest set bit is the smallest
        node, so each step reads one node from bit_length().
        """
        nodes = []
        while mask:
            i, s, _ = self.step[mask.bit_length()]
            nodes.append(i)
            mask -= self.bias << s
        return tuple(nodes)

    def apply(self, word: Sequence[int], p: int) -> int:
        """s_{i1} ... s_{ik} applied to the packed weight p, right end first."""
        reflection, field, bias = self.reflection, self.field, self.bias
        for i in reversed(word):
            s, a = reflection[i]
            p -= (((p >> s) & field) - bias) * a
        return p

    def act(self, action: Sequence[tuple[int, int]], p: int) -> int:
        """w_0(I)(p) for action the map of _w0 and p any packed weight.

        Every field is read from p itself, never from a partial sum, so the
        |I| steps are exact, the packing being affine, whenever w_0(I)(p)
        lies within the bound.
        """
        field, bias = self.field, self.bias
        q = p
        for s, b in action:
            q -= (((p >> s) & field) - bias) * b
        return q

    def walk(self, p: int, head: int) -> tuple[tuple[int, ...], int]:
        """The chamber walk of p over the nodes whose sign bits head holds.

        Each step reflects by the smallest such node with a negative
        coordinate, the highest clear sign bit of p in head.  Returns the
        letters in the order applied and the packed weight where it stops.
        """
        step, field, bias = self.step, self.field, self.bias
        letters = []
        while neg := head & ~p:
            i, s, a = step[neg.bit_length()]
            letters.append(i)
            p -= (((p >> s) & field) - bias) * a
        return tuple(letters), p


@lru_cache(maxsize=None)
def _layout(spec: RootSystemSpec, bound: int | None = None) -> _Layout:
    """The layout of spec with bound; without one, the layout of w(rho).

    The bound of w(rho) is H = h - 1 (module docstring).  Cached per (spec,
    bound): the characters module passes only bounds 2**b - 1, so there is
    at most one layout per spec and field width.
    """
    return _Layout(spec, spec.coxeter_number - 1 if bound is None else bound)


def identity(spec: RootSystemSpec) -> WeylElement:
    return from_word(spec, ())


def simple_reflection(spec: RootSystemSpec, i: int) -> WeylElement:
    if not is_int(i):
        raise WordLetterError(f"generator index {i!r} is not an int")
    if not 1 <= i <= spec.rank:
        raise WordLetterError(f"generator index {i} out of range 1..{spec.rank}")
    return from_word(spec, (i,))


def from_word(spec: RootSystemSpec, word: Sequence[int]) -> WeylElement:
    """Evaluate a word in the generators, s_{i1} s_{i2} ... s_{ik}.

    The word is exactly a list or tuple (rootsys.is_ordered); anything else
    raises WordLetterError, as a letter that is not an int in 1..rank does.
    """
    if not is_ordered(word):
        raise WordLetterError(f"word {word!r} is not a sequence of letters")
    lay = _layout(spec)
    # One pass over plain ints in 1..rank, the keys of lay.reflection; any
    # other letter goes to the per-letter loop, which names the first bad one
    # (an int subclass other than bool passes).
    if not (set(map(type, word)) <= {int} and lay.reflection.keys() >= set(word)):
        for pos, letter in enumerate(word, 1):
            if not is_int(letter):
                raise WordLetterError(
                    f"letter {letter!r} at position {pos} is not an int"
                )
            if not 1 <= letter <= spec.rank:
                raise WordLetterError(
                    f"letter {letter!r} at position {pos} out of range 1..{spec.rank}"
                )
    return _element(spec, lay.apply(word, lay.rho))


def multiply(spec: RootSystemSpec, u: WeylElement, v: WeylElement) -> WeylElement:
    """The product uv: the word of u acting on v(rho)."""
    _check_element(spec, v)
    return _element(spec, _layout(spec).apply(reduced_word(spec, u), v.packed))


def inverse(spec: RootSystemSpec, w: WeylElement) -> WeylElement:
    """w^{-1}: the reversed word of w acting on rho."""
    return from_word(spec, reduced_word(spec, w)[::-1])


def length(spec: RootSystemSpec, w: WeylElement) -> int:
    """Coxeter length, as the length of the canonical reduced word."""
    return len(reduced_word(spec, w))


def reduced_word(spec: RootSystemSpec, w: WeylElement) -> tuple[int, ...]:
    """Canonical reduced word: repeatedly strip the smallest left descent."""
    _check_element(spec, w)
    return w.word


def support(spec: RootSystemSpec, w: WeylElement) -> frozenset[int]:
    """Generators occurring in a reduced word (independent of the word)."""
    return frozenset(reduced_word(spec, w))


def left_descents(spec: RootSystemSpec, w: WeylElement) -> frozenset[int]:
    """{i : length(s_i w) < length(w)}: the clear sign bits of w(rho)."""
    _check_element(spec, w)
    lay = _layout(spec)
    return frozenset(lay.nodes(lay.top & ~w.packed))


# Counted traffic: the perfbench E8 queries make 162 (layout, I) keys of a
# possible 256, and no CI pin more than 190 (the E6 battery census).
@lru_cache(maxsize=1024)
def _w0(lay: _Layout, subset: tuple[int, ...]) -> tuple[int, tuple]:
    """The length of w_0(I) and its map for lay.act, for a validated I.

    w_0(I) takes -rho into the I-dominant chamber, so the walk of -rho over I
    ends at -w_0(I)(rho).  The I-coordinates of -rho and of w_0(I)(rho) are
    all -1, the walk reads only those, and the strip of w_0(I)(rho) never
    meets a negative coordinate outside I; so the walk's letters are the
    canonical word of w_0(I), and no element is built or stripped.  The map
    is a pair (s_j, B_j) per j in I: B_j is omega_j - w_0(I)(omega_j)
    packed, unbiased, and s_j the shift of node j; w_0(I) fixes omega_j for
    j outside I.  The word, applied to omega_j, makes B_j and is not kept;
    the orbits of rho and omega_j stay within h - 1, the least bound.
    """
    # 2 * top - p packs the negative of the weight that p packs.
    word = lay.walk(2 * lay.top - lay.rho, lay.mask(subset))[0]
    action = []
    for j in subset:
        s = lay.shifts[j - 1]
        omega = lay.top + (1 << s)
        action.append((s, omega - lay.apply(word, omega)))
    return len(word), tuple(action)


def longest_parabolic(spec: RootSystemSpec, nodes) -> WeylElement:
    """The longest element w_0(I) of the standard parabolic subgroup W_I.

    The map of _w0 applied to rho; each call builds a new element.
    """
    lay = _layout(spec)
    action = _w0(lay, validate_node_subset(spec, nodes))[1]
    return _element(spec, lay.act(action, lay.rho))


def is_standard_coxeter(spec: RootSystemSpec, d: WeylElement) -> bool:
    """True iff some (equivalently, any) reduced word of d has distinct letters.

    Equivalent test: length(d) == |support(d)|.  The identity passes with
    0 == 0; a standard Coxeter element of full support has length = rank.
    """
    word = reduced_word(spec, d)
    return len(word) == len(set(word))


def classical_group_order(spec: RootSystemSpec) -> int:
    """|W| by the classical formulas, independent of enumeration."""
    fam, n = spec.cartan_type.family, spec.rank
    if fam == "A":
        return factorial(n + 1)
    if fam in ("B", "C"):
        return 2**n * factorial(n)
    if fam == "D":
        return 2 ** (n - 1) * factorial(n)
    if fam == "E":
        return {6: 51_840, 7: 2_903_040, 8: 696_729_600}[n]
    if fam == "F":
        return 1152
    return 12  # G2


def capped_group_order(spec: RootSystemSpec, cap: int, remedy: str) -> int:
    """classical_group_order(spec); CapExceeded if it passes cap.

    The message ends "raise the cap to " + remedy.
    """
    order = classical_group_order(spec)
    if order > cap:
        raise CapExceeded(
            f"group of type {spec.cartan_type} has order {order}, "
            f"over the cap {cap}; raise the cap to {remedy}"
        )
    return order


def enumerate_group(
    spec: RootSystemSpec, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[WeylElement]:
    """Every group element exactly once, in nondecreasing length order.

    Within a length layer, elements come in increasing lexicographic order
    of w(rho), so the stream is deterministic.  Each element wraps the
    packed w(rho) of _elements, which holds only the current and the next
    layer, each word as bytes, one byte per letter; the word of an element
    is stripped only when it is read.  A cap that is not an int (bool
    included) or is below 1 is bad input and raises ValueError, as in
    census.start_census.  Raises CapExceeded, before the first element,
    when the order of the group (classical_group_order) passes cap; nothing
    is silently truncated.
    """
    for p, _ in _elements(spec, cap):
        yield _element(spec, p)


def _elements(
    spec: RootSystemSpec, cap: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The (packed w(rho), canonical word) pairs in enumerate_group's order.

    enumerate_group keeps the packed ints; the census reads the raw pairs,
    so it strips no word of w, and builds no WeylElement.  The checks
    are enumerate_group's: ValueError for a bad cap and CapExceeded, both at
    the first next(), and the final count against classical_group_order.
    """
    if not (is_int(cap) and cap >= 1):
        raise ValueError(f"enumeration cap {cap!r} is not a positive integer")
    order = capped_group_order(spec, cap, "enumerate it")
    lay = _layout(spec)
    n = spec.rank
    field, bias = lay.field, lay.bias
    bonds = spec.weight_bonds
    # s_j raises the length exactly when coordinate j is positive, and s_j u
    # has u as its canonical parent exactly when j is its smallest negative
    # coordinate.  s_j raises only its bond neighbours, so with m the
    # smallest negative coordinate of u (its first letter), s_j u is
    # canonical for every j < m, and for j > m only if m bonds to j and the
    # sign bits of the nodes m..j-1 of s_j u are all set.  Each candidate
    # is (shift, packed alpha_j, letter, those sign bits; 0 for j < m).
    candidates = []
    for m in range(1, n + 2):  # n + 1: rho, with no negative coordinate
        row = []
        for j in range(1, n + 1):
            if j > m and m - 1 not in dict(bonds[j - 1]):
                continue
            row.append((*lay.reflection[j], bytes((j,)), lay.mask(range(m, j))))
        candidates.append(tuple(row))
    layer = [(lay.rho, b"")]
    count = 1
    while layer:
        for p, word in layer:
            yield p, tuple(word)
        # Each element of the next layer is made once, from this layer
        # alone: no seen-set, no dedupe.
        fresh = []
        for p, word in layer:
            for s, a, letter, guard in candidates[word[0] - 1 if word else n]:
                f = (p >> s) & field
                if f > bias:
                    child = p - (f - bias) * a
                    if child & guard == guard:
                        fresh.append((child, letter + word))
        count += len(fresh)
        fresh.sort()
        layer = fresh
    if count != order:
        raise RuntimeError(
            f"enumeration of {spec.cartan_type} found {count} elements, "
            f"formula says {order}"
        )
