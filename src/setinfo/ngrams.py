"""Character n-gram sets and the symmetric-difference (Hamming) metric.

Every text segment an agent produces is represented as the set of its
distinct character n-grams.  Distances between segments are counted on
those sets, so two segments with identical gram sets are the same point
of the metric space regardless of how they were written down.

``ngram_set`` builds one set from scratch.  A run builds its sets through
one ``GramIndex`` instead, which gives every gram of the run an int id and
memoizes the grams of each distinct space-free piece (token memo, bounded
by the corpus vocabulary) and of each distinct seam window (window memo,
bounded by the distinct windows).  One method, ``GramIndex.segments``,
builds every such set as the union of its pieces' grams and of the
windows between them; the set carries its gram ids, from which the
estimator builds its rows without looking at a gram string, and its
grams are derived from the ids only when read.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .density import Scratch


class EmptyText(ValueError):
    """A gram set would have to be built from an empty string."""


class LingSet:
    """A finite set of distinct character n-grams plus its originating text.

    A set built by a ``GramIndex`` also holds that index and the ids of its
    grams in the index's vocabulary, where an id may repeat; neither is
    compared or hashed.  Such a set may be made without its grams (``grams``
    None): they are then derived from the ids, through the index's inverse
    vocabulary, on first access.  Sets compare and hash by their grams and
    source, and cannot be changed.
    """

    __slots__ = ("grams", "source", "index", "ids")

    def __init__(
        self,
        grams: frozenset[str] | None,
        source: str,
        index: GramIndex | None = None,
        ids: np.ndarray | None = None,
    ) -> None:
        if grams is not None:
            object.__setattr__(self, "grams", grams)
        elif index is None or ids is None:
            raise ValueError("a LingSet without grams needs its gram ids and their index")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ids", ids)

    def __getattr__(self, name: str) -> frozenset[str]:
        # Reached only for an unset slot, and only ``grams`` is ever left unset.
        if name != "grams":
            raise AttributeError(name)
        grams = self.index.grams_of(self.ids)
        object.__setattr__(self, "grams", grams)
        return grams

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.grams, self.source) == (other.grams, other.source)

    def __hash__(self) -> int:
        return hash((self.grams, self.source))

    def __repr__(self) -> str:
        return f"LingSet(grams={self.grams!r}, source={self.source!r})"


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

    ``segments`` builds the set of each text from the text's ``pieces``: a
    set equal to ``ngram_set(text, n_min, n_max, include_space)`` that
    carries its gram ids; calling the index on one text is ``segments`` of
    that text.  Without ``include_space`` a set is the union of the grams
    of ``text.split()``.  With it, the text is cut at each space into
    pieces, each scanned whole (a piece may be empty, or hold tabs or
    newlines), and a gram that holds a space is found in the window
    between the text before its last space and the piece after it: a gram
    of at most ``n_max`` characters starts at most ``n_max - 1`` characters
    before that space and ends inside that piece.  The pieces (a token
    memo, bounded by the distinct pieces) and the windows (bounded by the
    distinct windows) are memoized for as long as the index lives, and so
    is ``vocab``, which numbers every gram on first sight, with its
    inverse, through which a built set's grams are derived when first
    read.  ``scratch`` holds the estimator's step buffers
    (``density.Scratch``) from the first step on, for as long as the index
    lives.  Every memoized set points back to the index, so an index
    with memos lives until a cyclic collection; ``clear`` drops the memos
    and the scratch, after which the index dies with its last outside
    reference.  Nothing here is locked: an index, and the steps that use
    it, belong to one thread.
    """

    def __init__(self, n_min: int, n_max: int, include_space: bool) -> None:
        if n_min < 1 or n_max < n_min:
            raise ValueError(f"bad n-gram lengths: n_min={n_min}, n_max={n_max}")
        self.settings = (n_min, n_max, include_space)
        self.vocab: dict[str, int] = {}
        self._inverse: list[str] = []  # the gram of each id, up to where grams_of last read
        self.scratch: Scratch | None = None  # set by the estimator's first step on this index's sets
        self._token_ids: dict[str, int] = {}
        self._tokens: list[LingSet] = []  # the token memo, by token id
        self._pairs: dict[tuple[int, int], LingSet] = {}  # windows, by token-id pair
        self._windows: dict[str, LingSet] = {}

    def clear(self) -> None:
        """Empty the token, pair and window memos and drop the scratch.

        The vocabulary stays, so the sets built before can still read their
        grams; later calls fill the memos again.
        """
        self.scratch = None
        self._token_ids.clear()
        self._tokens.clear()
        self._pairs.clear()
        self._windows.clear()

    def number(self, grams: Iterable[str]) -> np.ndarray:
        """The ids of ``grams``, numbering the ones not seen before."""
        vocab = self.vocab
        return np.array([vocab.setdefault(g, len(vocab)) for g in grams], dtype=np.int32)

    def grams_of(self, ids: np.ndarray) -> frozenset[str]:
        """The grams that ``ids`` number; the inverse vocabulary catches up with ``vocab`` here."""
        inverse = self._inverse
        if len(inverse) < len(self.vocab):
            inverse.extend(islice(self.vocab, len(inverse), None))
        return frozenset(map(inverse.__getitem__, ids.tolist()))

    def _scan(self, text: str, spaced: bool) -> LingSet:
        """``text``'s grams, only those holding a space if ``spaced``, kept as ids only."""
        n_min, n_max, _ = self.settings
        grams = ngram_set(text, n_min, n_max, True).grams if text else frozenset()
        if spaced:
            grams = (g for g in grams if " " in g)
        return LingSet(None, text, self, self.number(grams))

    def _token(self, token: str) -> int:
        """The id of a space-free piece in the token memo, scanned on first sight; "" has no grams."""
        i = self._token_ids.get(token)
        if i is None:
            scanned = self._scan(token, False)
            i = self._token_ids[token] = len(self._tokens)
            self._tokens.append(scanned)
        return i

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
        found = self._windows.get(key)
        if found is None:
            found = self._windows[key] = self._scan(key, True)
        return found

    def pieces(self, text: str) -> list[str]:
        """How ``text`` is cut: at each space with ``include_space``, else at every whitespace run."""
        return text.split(" ") if self.settings[2] else text.split()

    def __call__(self, text: str) -> LingSet:
        if not text:
            raise EmptyText("cannot build an n-gram set from empty text")
        return self.segments([text], [self.pieces(text)])[0]

    def segments(self, texts: Sequence[str], tokens: Sequence[Sequence[str]]) -> list[LingSet]:
        """The set of each text, given as its pieces: ``tokens[i] == self.pieces(texts[i])``.

        Each set equals ``ngram_set(texts[i], n_min, n_max, include_space)``.
        The pieces are numbered through the token memo, an empty one as the
        empty set.  With ``include_space``, the seam window before piece t
        is keyed by the id pair (piece t-1, piece t), since the window holds
        the last ``n_max - 1`` characters of the text before the space, all
        inside piece t-1, unless piece t-1 is shorter; only then is the
        window keyed by that text's tail, cut at the start of the text.  The
        gram ids of all the sets are held in one array, each set's as one
        contiguous slice, and the sets' grams are not built.
        """
        token_ids, memo, pairs = self._token_ids, self._tokens, self._pairs
        parts: list[LingSet] = []
        ends = []
        for seg in tokens:
            ids = list(map(token_ids.get, seg))
            if None in ids:
                ids = list(map(self._token, seg))
            parts += map(memo.__getitem__, ids)
            if self.settings[2]:
                windows = list(map(pairs.get, zip(ids, ids[1:])))
                for t, window in enumerate(windows, 1):
                    if window is None:
                        windows[t - 1] = self._seam(seg, ids, t)
                parts += windows
            ends.append(len(parts))
        arrays = list(map(attrgetter("ids"), parts))
        flat = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int32)
        bounds = np.cumsum([0, *map(len, arrays)])[[0, *ends]].tolist()
        return [
            LingSet(None, text, self, flat[start:end])
            for text, start, end in zip(texts, bounds, bounds[1:])
        ]

    def _seam(self, seg: Sequence[str], ids: list[int], t: int) -> LingSet:
        """The window before piece t of ``seg``, memoized by id pair if piece t-1 spans it."""
        reach = self.settings[1] - 1
        if len(seg[t - 1]) < reach:  # reach + 1 pieces span reach characters: the spaces between them
            return self.window(" ".join(seg[max(t - reach - 1, 0) : t]), seg[t])
        window = self._pairs[ids[t - 1], ids[t]] = self.window(seg[t - 1], seg[t])
        return window
