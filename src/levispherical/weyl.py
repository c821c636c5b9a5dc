"""Exact Weyl-group arithmetic on the orbit of rho.

A group element w is represented by the integer vector w(rho) in
fundamental-weight coordinates.  rho = (1, ..., 1) is regular, so w is
determined by w(rho), and three facts carry all the word machinery
(Casselman, "Machine calculations in Weyl groups", 1994; the numbers game
of Bjorner-Brenti, "Combinatorics of Coxeter Groups", ch. 4):

* i is a left descent of w  iff  coordinate i of w(rho) is negative,
* (s_i w)(rho) is the weight reflection s_i applied to w(rho),
* so length(s_i w) = length(w) + 1  iff  coordinate i is positive.

The canonical reduced word of w strips the smallest negative coordinate,
i.e. the smallest left descent, until rho is reached.  A word acts on a
weight letter by letter from its right end, which gives evaluation of
words, products and inverses; no matrix is ever multiplied.

Group enumeration is breadth-first over left multiplication, which visits
elements layer by layer in length order; each layer is emitted in
lexicographic w(rho) order so the stream is deterministic.  Every element
is reached once, from its canonical parent s_m w (m its smallest left
descent), so its canonical word is the parent's with m prepended.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Optional

from .rootsys import (
    RootSystemSpec,
    is_int,
    validate_node_subset,
    weight_reflection,
)

DEFAULT_ENUM_CAP = 2_000_000

Weight = tuple[int, ...]


class WordLetterError(ValueError):
    """A word letter outside 1..rank, reported with its position."""


class CapExceeded(RuntimeError):
    """Group enumeration aborted: the group has more elements than the cap."""


@dataclass(frozen=True)
class WeylElement:
    """A Weyl-group element, identified by w(rho) in weight coordinates.

    known_word, if given, must be the canonical reduced word of the element
    (group enumeration passes it); it takes no part in equality or hashing.
    """

    spec: RootSystemSpec
    rho_image: Weight
    known_word: Optional[tuple[int, ...]] = field(default=None, compare=False)

    def __repr__(self) -> str:
        return f"WeylElement({self.spec.cartan_type}, {self.rho_image!r})"

    @property
    def word(self) -> tuple[int, ...]:
        """Canonical reduced word, stripped from w(rho) once and then kept."""
        word = self.known_word
        if word is None:
            word = _word(self.spec, self.rho_image)
            object.__setattr__(self, "known_word", word)
        return word


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


def _word(spec: RootSystemSpec, wt: Weight) -> tuple[int, ...]:
    """Canonical reduced word of the w with w(rho) = wt.

    Strips the smallest negative coordinate, reflecting in place.  s_j
    leaves the coordinates below j nonnegative except its neighbours, so the
    scan resumes at the lowest coordinate s_j changed, not at 0.
    """
    bonds = spec.weight_bonds
    out = list(wt)
    n = len(out)
    letters = []
    j = 0
    while j < n:
        c = out[j]
        if c >= 0:
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
    return tuple(letters)


def _rho(spec: RootSystemSpec) -> Weight:
    return (1,) * spec.rank


def identity(spec: RootSystemSpec) -> WeylElement:
    return WeylElement(spec, _rho(spec))


def simple_reflection(spec: RootSystemSpec, i: int) -> WeylElement:
    if not (is_int(i) and 1 <= i <= spec.rank):
        raise WordLetterError(f"generator index {i} out of range 1..{spec.rank}")
    return WeylElement(spec, weight_reflection(spec, _rho(spec), i - 1))


def from_word(spec: RootSystemSpec, word: Iterable[int]) -> WeylElement:
    """Evaluate a word in the generators, s_{i1} s_{i2} ... s_{ik}."""
    word = tuple(word)
    # One pass over plain ints; any other letter goes to the per-letter loop,
    # which names the first bad one (an int subclass other than bool passes).
    if word and not (
        all(type(letter) is int for letter in word)
        and 1 <= min(word)
        and max(word) <= spec.rank
    ):
        for pos, letter in enumerate(word, 1):
            if not (is_int(letter) and 1 <= letter <= spec.rank):
                raise WordLetterError(
                    f"letter {letter!r} at position {pos} out of range 1..{spec.rank}"
                )
    return WeylElement(spec, apply_word(spec, word, _rho(spec)))


def multiply(spec: RootSystemSpec, u: WeylElement, v: WeylElement) -> WeylElement:
    """The product uv: the word of u acting on v(rho)."""
    return WeylElement(spec, apply_word(spec, u.word, v.rho_image))


def inverse(spec: RootSystemSpec, w: WeylElement) -> WeylElement:
    """w^{-1}: the reversed word of w acting on rho."""
    return WeylElement(spec, apply_word(spec, w.word[::-1], _rho(spec)))


def length(spec: RootSystemSpec, w: WeylElement) -> int:
    """Coxeter length, as the length of the canonical reduced word."""
    return len(w.word)


def reduced_word(spec: RootSystemSpec, w: WeylElement) -> tuple[int, ...]:
    """Canonical reduced word: repeatedly strip the smallest left descent.

    Stripped once per element and kept on it.
    """
    return w.word


def support(spec: RootSystemSpec, w: WeylElement) -> frozenset[int]:
    """Generators occurring in a reduced word (independent of the word)."""
    return frozenset(w.word)


def left_descents(spec: RootSystemSpec, w: WeylElement) -> frozenset[int]:
    """{i : length(s_i w) < length(w)}: the negative coordinates of w(rho)."""
    return frozenset(j + 1 for j, c in enumerate(w.rho_image) if c < 0)


@lru_cache(maxsize=None)
def _longest_parabolic(spec: RootSystemSpec, subset: tuple[int, ...]) -> WeylElement:
    # Keyed by (spec, validated subset): at most 2**rank entries per type.
    wt = _rho(spec)
    while (j := next((i - 1 for i in subset if wt[i - 1] > 0), None)) is not None:
        wt = weight_reflection(spec, wt, j)
    return WeylElement(spec, wt)


def longest_parabolic(spec: RootSystemSpec, nodes) -> WeylElement:
    """The longest element w_0(I) of the standard parabolic subgroup W_I.

    Greedy ascent from rho: while some i in I is not a left descent,
    left-multiply by s_i (smallest such i first).  Each step raises the
    length by one, so the walk stops at the unique element of W_I with all
    of I as descents.
    """
    return _longest_parabolic(spec, validate_node_subset(spec, nodes))


def is_standard_coxeter(spec: RootSystemSpec, d: WeylElement) -> bool:
    """True iff some (equivalently, any) reduced word of d has distinct letters.

    Equivalent test: length(d) == |support(d)|.  The identity passes with
    0 == 0; a standard Coxeter element of full support has length = rank.
    """
    word = d.word
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


def enumerate_group(
    spec: RootSystemSpec, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[WeylElement]:
    """Every group element exactly once, in nondecreasing length order.

    Within a length layer, elements come in increasing lexicographic order
    of w(rho), so the stream is deterministic.  Each element carries its
    canonical reduced word, so no word is stripped.  Only the current and
    the next layer are held (E6: 51,840 elements in about 0.30 s on a 2-vCPU
    VM, the weyl.enumerate_s layer of a traced perfbench census-e6 run).
    Raises CapExceeded as soon as a layer takes the count past cap;
    nothing is silently truncated.
    """
    n = spec.rank
    bonds = spec.weight_bonds
    layer = [(_rho(spec), ())]
    count = 1
    while layer:
        for wt, word in layer:
            yield WeylElement(spec, wt, word)
        # s_j raises the length exactly when coordinate j is positive, and
        # s_j u has u as its canonical parent exactly when j is its smallest
        # negative coordinate.  So each element of the next layer is made
        # once, from this layer alone: no seen-set, no dedupe.
        fresh = []
        for wt, word in layer:
            for j in range(n):
                k = wt[j]
                if k > 0:
                    child = list(wt)
                    child[j] = -k
                    for b, a in bonds[j]:
                        child[b] -= k * a
                    for c in child[:j]:
                        if c < 0:
                            break
                    else:
                        fresh.append((tuple(child), (j + 1,) + word))
        count += len(fresh)
        if count > cap:
            raise CapExceeded(
                f"group of type {spec.cartan_type} exceeds cap {cap}; "
                f"raise the cap to enumerate it"
            )
        fresh.sort()
        layer = fresh
    if count != classical_group_order(spec):
        raise RuntimeError(
            f"enumeration of {spec.cartan_type} found {count} elements, "
            f"formula says {classical_group_order(spec)}"
        )
