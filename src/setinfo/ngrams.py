"""Character n-gram sets and the symmetric-difference (Hamming) metric.

Every text segment an agent produces is represented as the set of its
distinct character n-grams.  Distances between segments are counted on
those sets, so two segments with identical gram sets are the same point
of the metric space regardless of how they were written down.
"""

from __future__ import annotations

from dataclasses import dataclass


class EmptyText(ValueError):
    """A gram set would have to be built from an empty string."""


@dataclass(frozen=True)
class LingSet:
    """A finite set of distinct character n-grams plus its originating text."""

    grams: frozenset[str]
    source: str


def ngram_set(text: str, n_min: int, n_max: int, include_space: bool) -> LingSet:
    """Collect every distinct contiguous substring of length n_min..n_max.

    With ``include_space`` grams run across word boundaries
    and may contain space characters; otherwise each space-separated token
    is scanned on its own and no gram contains a space.
    """
    if not text:
        raise EmptyText("cannot build an n-gram set from empty text")
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"bad n-gram lengths: n_min={n_min}, n_max={n_max}")
    pieces = [text] if include_space else text.split()
    grams: set[str] = set()
    for piece in pieces:
        for n in range(n_min, min(n_max, len(piece)) + 1):
            for i in range(len(piece) - n + 1):
                grams.add(piece[i : i + n])
    return LingSet(grams=frozenset(grams), source=text)


def hamming(a: LingSet, b: LingSet) -> int:
    """Symmetric-difference distance |a ^ b| between two gram sets."""
    return len(a.grams ^ b.grams)


def join(
    a: LingSet, b: LingSet, mode: str, n_min: int, n_max: int, include_space: bool
) -> LingSet:
    """Combine two realizations into one joint realization.

    ``union`` takes the gram-set union.  ``concat`` re-extracts grams from
    the space-joined sources, which adds the seam-crossing grams that
    union mode cannot see; its gram set is therefore a superset of the
    union-mode one.
    """
    merged = a.source + " " + b.source
    if mode == "union":
        return LingSet(grams=a.grams | b.grams, source=merged)
    if mode == "concat":
        return ngram_set(merged, n_min, n_max, include_space)
    raise ValueError(f"unknown join mode: {mode!r}")


def seam_grams(a: str, b: str, n_min: int, n_max: int) -> frozenset[str]:
    """The grams of ``a + " " + b`` that cross the joining space (plus a few that do not).

    With ``include_space``, ``ngram_set(a + " " + b)`` is exactly
    ``ngram_set(a) | ngram_set(b) | seam_grams(a, b)``: a gram of at most
    ``n_max`` characters that covers the space lies inside the window of
    ``n_max - 1`` characters on each side.  Without ``include_space`` no gram
    crosses a space, and a concat join equals the union.
    """
    reach = n_max - 1  # a[-0:] would be all of a, so the tail is cut explicitly
    return ngram_set(a[max(len(a) - reach, 0) :] + " " + b[:reach], n_min, n_max, True).grams
