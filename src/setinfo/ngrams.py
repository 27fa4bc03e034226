"""Character n-gram sets and the symmetric-difference (Hamming) metric.

Every text segment an agent produces is represented as the set of its
distinct character n-grams.  Distances between segments are counted on
those sets, so two segments with identical gram sets are the same point
of the metric space regardless of how they were written down.

``ngram_set`` builds one set from scratch.  A run builds its sets through
one ``GramIndex`` instead, which gives every gram of the run an int id and
memoizes the grams of each distinct space-free piece (token memo, bounded
by the corpus vocabulary) and of each distinct seam window (window memo,
bounded by the distinct windows), each as a numbered part of one id
store.  A memo is looked up a batch of texts at a time, and the texts it
lacks are scanned and stored together.  One method, ``GramIndex.segments``,
builds every such set as the union of its pieces' grams and of the
windows between them; the set carries its gram ids, from which the
estimator builds its rows without looking at a gram string, and its
grams are derived from the ids only when read.  One rule cuts every seam
window, for ``segments`` and for the estimator's concat joins
(``GramIndex.window_parts``) alike: the window at a space of a text is
the slice of the text ``n_max - 1`` characters either side of it.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from itertools import chain, islice
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
            _set_grams(self, grams)
        elif index is None or ids is None:
            raise ValueError("a LingSet without grams needs its gram ids and their index")
        _set_source(self, source)
        _set_index(self, index)
        _set_ids(self, ids)

    def __getattr__(self, name: str) -> frozenset[str]:
        # Reached only for an unset slot, and only ``grams`` is ever left unset.
        if name != "grams":
            raise AttributeError(name)
        grams = self.index.grams_of(self.ids)
        _set_grams(self, grams)
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


# The slots' own setters, which ``__setattr__`` does not reach; a step builds
# hundreds of sets, and these take about half the time of object.__setattr__.
_set_grams, _set_source, _set_index, _set_ids = (
    slot.__set__ for slot in (LingSet.grams, LingSet.source, LingSet.index, LingSet.ids)
)


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
    newlines), and a gram that holds a space is found in the window of
    that space.  One rule cuts every window: the window at a space ``p``
    of a text is ``text[max(p - reach, 0) : p + 1 + reach]``, with
    ``reach = n_max - 1``, since a gram of at most ``n_max`` characters
    that holds that space lies inside it.  A join's window is the rule
    applied to ``a + " " + b`` at the joining space.  The pieces (a token
    memo, bounded by the distinct pieces) and the windows (a window memo,
    bounded by the distinct windows) are memoized for as long as the index
    lives, each as a numbered part whose gram ids sit in one store, part
    after part; so is ``vocab``, which numbers every gram on first sight,
    with its inverse, through which a built set's grams are derived when
    first read.  Both memos are looked up, and their misses scanned, a
    batch at a time (``_lookup``).  ``scratch`` holds the estimator's step
    buffers (``density.Scratch``) from the first step on, for as long as
    the index lives.  The sets an index builds point to it, and nothing in
    the index points to a set, so an index dies with its last reference.
    Nothing here is locked: an index, and the steps that use it, belong to
    one thread.
    """

    def __init__(self, n_min: int, n_max: int, include_space: bool) -> None:
        if n_min < 1 or n_max < n_min:
            raise ValueError(f"bad n-gram lengths: n_min={n_min}, n_max={n_max}")
        self.settings = (n_min, n_max, include_space)
        self.vocab: dict[str, int] = {}
        self._inverse: list[str] = []  # the gram of each id, up to where grams_of last read
        self.scratch: Scratch | None = None  # set by the estimator's first step on this index's sets
        self._token_ids: dict[str, int] = {}  # the token memo: each piece's part
        self._windows: dict[str, int] = {}  # the window memo: each window's part, by its text
        # Part p's gram ids are _store[_offsets[p] : _offsets[p + 1]]; part 0 is empty.
        self._store = np.zeros(0, dtype=np.int32)
        self._offsets = np.zeros(2, dtype=np.intp)
        self._parts = 1

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

    def _lookup(self, memo: dict[str, int], texts: list[str], spaced: bool) -> list[int]:
        """The part of each of ``texts`` in ``memo``; the ones not in it are scanned together first.

        A missing text becomes a new part holding the ids of its distinct
        grams (only those holding a space if ``spaced``; "" has none),
        numbered as in ``number``; the parts of all the missing texts are
        written to the store in one append.  Each text's gram set lives only
        while it is numbered: holding them all at once raised a short run's
        peak RSS.
        """
        parts = list(map(memo.get, texts))
        if None not in parts:
            return parts
        missing = list(dict.fromkeys(t for t, p in zip(texts, parts) if p is None))
        n_min, n_max, _ = self.settings
        vocab = self.vocab
        found = [
            [
                vocab.setdefault(g, len(vocab))
                for g in {t[i : i + n] for n in range(n_min, n_max + 1) for i in range(len(t) - n + 1)}
                if not spaced or " " in g
            ]
            for t in missing
        ]
        ids = np.fromiter(chain.from_iterable(found), dtype=np.int32)
        first, start = self._parts, int(self._offsets[self._parts])
        end = first + len(missing)
        self._store = _fit(self._store, start + len(ids))
        self._offsets = _fit(self._offsets, end + 1)
        self._store[start : start + len(ids)] = ids
        np.cumsum([start, *map(len, found)], out=self._offsets[first : end + 1])
        self._parts = end
        memo.update(zip(missing, range(first, end)))
        return list(map(memo.get, texts))

    def _window_keys(self, tails: Sequence[str], heads: Sequence[str]) -> list[str]:
        """The window at the joining space of each ``a + " " + b``: ``a[max(len(a) - reach, 0):] + " " + b[:reach]``."""
        reach = self.settings[1] - 1
        starts = np.maximum(np.fromiter(map(len, tails), dtype=np.intp, count=len(tails)) - reach, 0).tolist()
        return [f"{a[i:]} {b[:reach]}" for a, b, i in zip(tails, heads, starts)]

    def window_parts(self, tails: Sequence[str], heads: Sequence[str]) -> np.ndarray:
        """The part of the window at the joining space of each ``tails[i] + " " + heads[i]``.

        Every window is looked up in one batch, in the memo that
        ``segments`` uses, and each is scanned once per index.  A window's
        part holds the ids of its grams that hold any of its spaces: with
        ``include_space``, ``ngram_set(a + " " + b)`` is exactly the union
        of ``ngram_set(a)``, ``ngram_set(b)`` and the window's grams, since
        a gram that holds no space lies inside ``a`` or ``b``.  Without
        ``include_space`` no gram crosses a space, and a concat join equals
        the union.
        """
        return np.array(self._lookup(self._windows, self._window_keys(tails, heads), True), dtype=np.intp)

    def gather(self, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gram ids of ``parts``, part after part in one array, and where each part starts and ends in it.

        Part i's ids are ``ids[bounds[i] : bounds[i + 1]]``.  Their store
        positions are one running sum of steps, taken in place: 1 inside a
        part, and at the start of each part the jump from the end of the
        part before it.  Besides the positions and the ids, no other array
        of their length is made: a step's transient arrays raised a short
        run's peak RSS.
        """
        first = self._offsets[parts]
        sizes = self._offsets[parts + 1] - first
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        filled = sizes > 0
        first, last = first[filled], first[filled] + sizes[filled] - 1
        at = np.ones(bounds[-1], dtype=np.intp)
        at[bounds[:-1][filled]] = first - np.concatenate(([0], last[:-1]))
        return self._store[np.cumsum(at, out=at)], bounds

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
        The pieces of all the texts are numbered in one lookup in the token
        memo, an empty one as the empty set.  With ``include_space`` the
        window at each space inside a text is cut from one string of all
        the pieces, at bounds computed in one pass and clipped to the text,
        and all the windows are looked up in one batch in the window memo.
        Each text's parts, its pieces and the windows between them, lie
        next to each other in one sequence, and one ``gather`` from the
        store lays all their gram ids out in one array; each set's ids are
        one contiguous slice of it, and the sets' grams are not built.
        """
        if not texts:  # a pool step whose texts are all built already
            return []
        pieces = list(chain.from_iterable(tokens))
        counts = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
        ends = np.cumsum(counts)
        starts = ends - counts
        # Part k of the sequence is piece k/2 for even k, and for odd k the
        # window at the space after piece (k-1)/2: empty where the next
        # piece belongs to another text, after the last piece, or without
        # include_space.
        sequence = np.zeros(2 * len(pieces), dtype=np.intp)
        sequence[0::2] = self._lookup(self._token_ids, pieces, False)
        if self.settings[2] and len(pieces) > 1:
            reach = self.settings[1] - 1
            joined = " ".join(pieces)
            lengths = np.fromiter(map(len, pieces), dtype=np.intp, count=len(pieces))
            stops = np.cumsum(lengths + 1) - 1  # where each piece stops in ``joined``: at the space after it
            owner = np.repeat(np.arange(len(tokens)), counts)
            inner = np.flatnonzero(owner[1:] == owner[:-1])  # the pieces followed by a space of their text
            at, first, last = stops[inner], starts[owner[inner]], ends[owner[inner]] - 1
            begin = np.maximum(at - reach, stops[first] - lengths[first]).tolist()  # clipped to the text
            end = np.minimum(at + 1 + reach, stops[last]).tolist()
            keys = [joined[a:b] for a, b in zip(begin, end)]
            sequence[2 * inner + 1] = self._lookup(self._windows, keys, True)
        flat, bounds = self.gather(sequence)
        lo = bounds[2 * starts].tolist()
        hi = bounds[np.maximum(2 * ends - 1, 2 * starts)].tolist()
        return [LingSet(None, text, self, flat[a:b]) for text, a, b in zip(texts, lo, hi)]


def _fit(array: np.ndarray, size: int) -> np.ndarray:
    """``array``, or a copy of it twice as long, if it is shorter than ``size``."""
    if len(array) >= size:
        return array
    grown = np.empty(max(size, 2 * len(array)), dtype=array.dtype)
    grown[: len(array)] = array
    return grown
