"""Character n-gram sets and the symmetric-difference (Hamming) metric.

Every text segment an agent produces is represented as the set of its
distinct character n-grams.  Distances between segments are counted on
those sets, so two segments with identical gram sets are the same point
of the metric space regardless of how they were written down.

``ngram_set`` builds one set from scratch.  A run builds its sets through
one ``GramIndex`` instead, which gives every gram of the run an int id and
memoizes the grams of each distinct space-free piece (token memo, bounded
by the corpus vocabulary) and of each distinct seam window (window memo,
bounded by the distinct windows).  A set is then the union of its pieces'
grams and of the windows between them, and carries its gram ids, from
which the estimator builds its rows without looking at a gram string.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


class EmptyText(ValueError):
    """A gram set would have to be built from an empty string."""


@dataclass(frozen=True)
class LingSet:
    """A finite set of distinct character n-grams plus its originating text.

    A set built by a ``GramIndex`` also holds that index and the ids of its
    grams in the index's vocabulary, where an id may repeat; neither is
    compared or hashed.
    """

    grams: frozenset[str]
    source: str
    index: GramIndex | None = field(default=None, compare=False, repr=False)
    ids: np.ndarray | None = field(default=None, compare=False, repr=False)


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


class GramIndex:
    """Gram ids and memoized gram sets for one run's n-gram settings.

    Calling the index on a text returns a set equal to ``ngram_set(text,
    n_min, n_max, include_space)`` that carries its gram ids.  Without
    ``include_space`` it is the union of the grams of ``text.split()``.  With
    it, the text is cut at each space into pieces, each scanned whole (a
    piece may hold tabs or newlines), and a gram that holds a space is
    found in the window between the text before its last space and the
    piece after it: a gram of at most ``n_max`` characters starts at most
    ``n_max - 1`` characters before that space and ends inside that piece.
    The pieces (a token memo, bounded by the distinct tokens) and the
    windows (bounded by the distinct windows) are memoized for as long as
    the index lives, and so is ``vocab``, which numbers every gram on first
    sight.  Numbering holds a lock, so threads that share the index never
    give two grams one id.
    """

    def __init__(self, n_min: int, n_max: int, include_space: bool) -> None:
        if n_min < 1 or n_max < n_min:
            raise ValueError(f"bad n-gram lengths: n_min={n_min}, n_max={n_max}")
        self.settings = (n_min, n_max, include_space)
        self.vocab: dict[str, int] = {}
        self._lock = threading.Lock()
        self._pieces: dict[str, LingSet] = {}
        self._windows: dict[str, LingSet] = {}

    def number(self, grams: Iterable[str]) -> np.ndarray:
        """The ids of ``grams``, numbering the ones not seen before."""
        vocab = self.vocab
        with self._lock:
            return np.array([vocab.setdefault(g, len(vocab)) for g in grams], dtype=np.int32)

    def _scan(self, table: dict[str, LingSet], text: str, spaced: bool) -> LingSet:
        """``text``'s grams (only those holding a space if ``spaced``), memoized in ``table``."""
        n_min, n_max, _ = self.settings
        grams = ngram_set(text, n_min, n_max, True).grams
        if spaced:
            grams = frozenset(g for g in grams if " " in g)
        table[text] = LingSet(grams, text, self, self.number(grams))
        return table[text]

    def window(self, a: str, b: str) -> LingSet:
        """The grams holding a space of ``a[-(n_max-1):] + " " + b[:n_max-1]``, scanned once per window.

        With ``include_space``, ``ngram_set(a + " " + b)`` is exactly
        ``ngram_set(a) | ngram_set(b) | window(a, b)``: a gram of at most
        ``n_max`` characters that covers the joining space lies inside this
        window, and one without a space lies inside ``a`` or ``b``.  Without
        ``include_space`` no gram crosses a space, and a concat join equals
        the union.
        """
        reach = self.settings[1] - 1  # a[-0:] would be all of a
        key = a[max(len(a) - reach, 0) :] + " " + b[:reach]
        return self._windows.get(key) or self._scan(self._windows, key, True)

    def __call__(self, text: str) -> LingSet:
        if not text:
            raise EmptyText("cannot build an n-gram set from empty text")
        pieces = self._pieces
        if not self.settings[2]:
            parts = [pieces.get(p) or self._scan(pieces, p, False) for p in text.split()]
            if not parts:
                return LingSet(frozenset(), text, self, np.zeros(0, dtype=np.int32))
        else:
            first, *rest = text.split(" ")
            parts = [pieces.get(first) or self._scan(pieces, first, False)] if first else []
            if not rest:
                return parts[0]
            reach = self.settings[1] - 1
            tail = first  # of the text before the next space, as far as a window reaches
            for piece in rest:
                parts.append(self.window(tail, piece))
                if piece:
                    parts.append(pieces.get(piece) or self._scan(pieces, piece, False))
                tail += " " + piece
                tail = tail[max(len(tail) - reach, 0) :]
        grams = frozenset().union(*[p.grams for p in parts])
        return LingSet(grams, text, self, np.concatenate([p.ids for p in parts]))
