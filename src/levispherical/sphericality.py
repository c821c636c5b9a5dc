"""Levi-sphericality of Schubert varieties, by the Coxeter-element test.

For w in the Weyl group and I a subset of the left descent set of w, the
Schubert variety X_w is spherical for the standard Levi subgroup L_I iff

    d = w_0(I) w   is a standard Coxeter element,

i.e. iff d admits a reduced word with pairwise distinct letters
(equivalently length(d) = |support(d)|).  The factorization is always
length-additive when I lies inside the descent set:

    length(w) = length(w_0(I)) + length(d),

and classify() and the census check this identity on every pair, through
the one kernel _split.

The toric case is I = {}: X_w has a dense torus orbit iff w itself is a
standard Coxeter element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .rootsys import CartanType, RootSystemSpec, validate_node_subset
from .weyl import (
    WeylElement,
    _Layout,
    _check_element,
    _layout,
    _w0,
    is_standard_coxeter,
    left_descents,
)


class LeviNotInDescents(ValueError):
    """The requested Levi subset is not contained in the left descent set."""

    def __init__(self, offending, descents) -> None:
        self.offending = tuple(sorted(offending))
        self.descents = tuple(sorted(descents))
        super().__init__(
            f"levi nodes {list(self.offending)} are not left descents of w "
            f"(left descents: {list(self.descents)})"
        )


class LengthAdditivityError(RuntimeError):
    """Internal consistency failure: length(w) != length(w_0(I)) + length(d)."""


@dataclass(frozen=True)
class ClassificationResult:
    """Full audit trail of one sphericality decision."""

    cartan_type: CartanType
    w_word: tuple[int, ...]
    levi: tuple[int, ...]
    d_word: tuple[int, ...]
    support_d: tuple[int, ...]
    len_w: int
    len_w0I: int
    len_d: int
    spherical: bool

    def to_json_dict(self) -> dict:
        return {
            "type": str(self.cartan_type),
            "w_word": list(self.w_word),
            "levi": list(self.levi),
            "d_word": list(self.d_word),
            "support_d": list(self.support_d),
            "len_w": self.len_w,
            "len_w0I": self.len_w0I,
            "len_d": self.len_d,
            "spherical": self.spherical,
        }


def _check_descents(spec: RootSystemSpec, w: WeylElement, levi) -> tuple[int, ...]:
    """The validated I; LeviNotInDescents unless it lies in the left descents of w.

    ValueError unless w is an element of the Weyl group of spec.
    """
    _check_element(spec, w)
    subset = validate_node_subset(spec, levi)
    lay = _layout(spec)
    # i is a left descent of w iff the sign bit of node i is clear.
    offending = lay.nodes(lay.mask(subset) & w.packed)
    if offending:
        raise LeviNotInDescents(offending, left_descents(spec, w))
    return subset


def _split(
    lay: _Layout,
    rho_image: int,
    w_word: tuple[int, ...],
    subset: tuple[int, ...],
    w0i: tuple[int, tuple[tuple[int, int], ...]],
    head: int,
    tails: Mapping[int, tuple[tuple[int, ...], Optional[str]]],
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], Optional[str]]]:
    """The word of d = w_0(I) w, as a walked prefix and a tail entry.

    rho_image is w(rho) packed by lay, the weyl._layout of the root system;
    subset is a validated I inside the left descent set of w, and w0i the
    pair weyl._w0(lay, subset): the length of w_0(I) and its linear map,
    which gives d(rho) in |I| steps; no w_0(I) is built or stripped.  head holds the sign bits of an initial
    segment J = {1..k} of the nodes.  d factors as y z with y in W_J and z
    without left descents in J, lengths adding (Bjorner-Brenti, Prop.
    2.4.4); every node of J is smaller than every other, so the canonical
    word of d is that of y, which the chamber walk of d(rho) over J spells,
    followed by that of z.  tails maps the packed z(rho), where the walk
    stops, to (word of z, its line text or None).  Returns y and
    that entry, so the census joins only y's text.  classify passes every
    node and {rho: ((), "")}, the full strip.  Raises LengthAdditivityError
    unless length(w) = length(w_0(I)) + length(d), and RuntimeError if
    tails lacks z.
    """
    w0i_length, w0i_action = w0i
    # w_0(I) is an involution, so d = w_0(I)^{-1} w = w_0(I) w.  This is
    # lay.act inline: the call would cost census-e6 1.4% (BENCH_30.json).
    field, bias = lay.field, lay.bias
    d = rho_image
    for s, b in w0i_action:
        d -= (((rho_image >> s) & field) - bias) * b
    y, z = lay.walk(d, head)
    tail = tails.get(z)
    if tail is None:
        raise RuntimeError(
            f"no tail word for {lay.unpack(z)}, where the walk of d = "
            f"w_0({list(subset)}) {w_word} over the leading nodes stops"
        )
    if len(w_word) != w0i_length + len(y) + len(tail[0]):
        raise LengthAdditivityError(
            f"length({w_word}) = {len(w_word)} but length(w_0({list(subset)})) + "
            f"length(d) = {w0i_length} + {len(y) + len(tail[0])}"
        )
    return y, tail


def classify(spec: RootSystemSpec, w: WeylElement, levi) -> ClassificationResult:
    """Decide whether X_w is L_I-spherical, with the full audit trail.

    Requires I to be a subset of the left descent set of w; anything else is
    an error, not a verdict.
    """
    subset = _check_descents(spec, w, levi)
    w_word = w.word
    lay = _layout(spec)
    w0i = _w0(lay, subset)
    d_word, _ = _split(
        lay, w.packed, w_word, subset, w0i, lay.top, {lay.rho: ((), "")}
    )
    support_d = tuple(sorted(set(d_word)))
    return ClassificationResult(
        cartan_type=spec.cartan_type,
        w_word=w_word,
        levi=subset,
        d_word=d_word,
        support_d=support_d,
        len_w=len(w_word),
        len_w0I=w0i[0],
        len_d=len(d_word),
        spherical=len(d_word) == len(support_d),
    )


def classify_toric(spec: RootSystemSpec, w: WeylElement) -> bool:
    """True iff X_w contains a dense torus orbit (the I = {} case)."""
    return is_standard_coxeter(spec, w)
