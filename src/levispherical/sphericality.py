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

from . import weyl
from .rootsys import CartanType, RootSystemSpec, validate_node_subset
from .weyl import (
    Weight,
    WeylElement,
    _longest_parabolic,
    apply_word,
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


def _split(
    spec: RootSystemSpec,
    rho_image: Weight,
    w_word: tuple[int, ...],
    subset: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The words of w_0(I) and d = w_0(I) w, for w given by w(rho) and its word.

    subset must be a validated I inside the left descent set of w.  Raises
    LengthAdditivityError unless length(w) = length(w_0(I)) + length(d).
    The word of the memoised w_0(I) is stripped once per subset; only d's is
    new here.  weyl._word is looked up at each call, so that a test counting
    strips sees every one.
    """
    w0i_word = _longest_parabolic(spec, subset).word
    # w_0(I) is an involution, so d = w_0(I)^{-1} w = w_0(I) w.
    d_word = weyl._word(spec, apply_word(spec, w0i_word, rho_image))
    if len(w_word) != len(w0i_word) + len(d_word):
        raise LengthAdditivityError(
            f"length({w_word}) = {len(w_word)} but length(w_0({list(subset)})) + "
            f"length(d) = {len(w0i_word)} + {len(d_word)}"
        )
    return w0i_word, d_word


def classify(spec: RootSystemSpec, w: WeylElement, levi) -> ClassificationResult:
    """Decide whether X_w is L_I-spherical, with the full audit trail.

    Requires I to be a subset of the left descent set of w; anything else is
    an error, not a verdict.
    """
    subset = validate_node_subset(spec, levi)
    # i is a left descent of w iff coordinate i of w(rho) is negative.
    offending = [i for i in subset if w.rho_image[i - 1] >= 0]
    if offending:
        raise LeviNotInDescents(offending, left_descents(spec, w))

    w_word = w.word
    w0i_word, d_word = _split(spec, w.rho_image, w_word, subset)
    support_d = tuple(sorted(set(d_word)))
    return ClassificationResult(
        cartan_type=spec.cartan_type,
        w_word=w_word,
        levi=subset,
        d_word=d_word,
        support_d=support_d,
        len_w=len(w_word),
        len_w0I=len(w0i_word),
        len_d=len(d_word),
        spherical=len(d_word) == len(support_d),
    )


def classify_toric(spec: RootSystemSpec, w: WeylElement) -> bool:
    """True iff X_w contains a dense torus orbit (the I = {} case)."""
    return is_standard_coxeter(spec, w)
