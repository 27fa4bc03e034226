from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setinfo import EmptyText, EstimatorConfig, LingSet, hamming, join, mutual_information, ngram_set
from setinfo.ngrams import GramIndex

from conftest import collector_disabled, lingsets, texts


def brute_force_grams(text: str, n_min: int, n_max: int) -> set[str]:
    # Independent oracle: enumerate every substring and filter by length.
    out = set()
    for i in range(len(text)):
        for j in range(i + 1, len(text) + 1):
            if n_min <= j - i <= n_max:
                out.add(text[i:j])
    return out


class TestNgramSet:
    def test_two_char_example(self):
        s = ngram_set("ab", 1, 3, True)
        assert s.grams == frozenset({"a", "b", "ab"})
        assert len(s.grams) == 3

    def test_repeated_char_example(self):
        s = ngram_set("aba", 1, 3, True)
        assert s.grams == frozenset({"a", "b", "ab", "ba", "aba"})
        assert len(s.grams) == 5

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyText):
            ngram_set("", 1, 3, True)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            ngram_set("abc", 0, 3, True)
        with pytest.raises(ValueError):
            ngram_set("abc", 3, 2, True)

    def test_space_inside_grams(self):
        s = ngram_set("a b", 1, 3, True)
        assert " " in s.grams
        assert "a b" in s.grams

    def test_include_space_false_keeps_grams_inside_tokens(self):
        s = ngram_set("ab cd", 1, 3, include_space=False)
        assert s.grams == frozenset({"a", "b", "ab", "c", "d", "cd"})

    @given(texts, st.integers(1, 3), st.integers(0, 2))
    def test_matches_brute_force_enumeration(self, text, n_min, extra):
        n_max = n_min + extra
        s = ngram_set(text, n_min, n_max, True)
        assert s.grams == frozenset(brute_force_grams(text, n_min, n_max))

    def test_source_preserved(self):
        assert ngram_set("the cat", 1, 3, True).source == "the cat"


def record_scans(monkeypatch) -> list[str]:
    """From here on, the text of every piece and window that an index scans."""
    calls = []
    scan = GramIndex._lookup

    def spy(self, texts):
        calls.extend(t for t in texts if t not in self._parts)
        return scan(self, texts)

    monkeypatch.setattr(GramIndex, "_lookup", spy)
    return calls


def window_grams(index: GramIndex, a: str, b: str) -> frozenset[str]:
    """The grams of ``index``'s window at the joining space of ``a + " " + b``."""
    return index.grams_of(index.gather(index.window_parts([a], [b]))[0])


def spaced_grams(key: str, n_min: int, n_max: int) -> frozenset[str]:
    """Every gram of ``key`` that holds a space, by brute force."""
    return frozenset(g for g in brute_force_grams(key, n_min, n_max) if " " in g)


# Texts over letters and three kinds of whitespace, with leading, trailing and
# doubled spaces and tokens shorter than a seam window's n_max - 1 characters.
spaced_texts = st.text(alphabet="ab \t\n", min_size=1, max_size=14)
GRAM_LENGTHS = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 4), (3, 3), (1, 5)]


class TestGramIndex:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(spaced_texts, min_size=1, max_size=6), st.sampled_from(GRAM_LENGTHS), st.booleans())
    @example(["ab\tcd ef"], (1, 3), True)  # a piece between spaces is scanned whole
    @example(["ab\tcd ef"], (1, 3), False)
    @example(["a b c"], (1, 3), True)  # " b " lies across two seams
    @example([" a  b "], (1, 4), True)
    @example(["ab", "b a", "ab"], (1, 1), True)
    @example(["a", "  "], (1, 3), False)  # a text without pieces after one with pieces
    def test_fold_equals_ngram_set(self, texts, lengths, include_space):
        # One index builds every text in its own ``segments`` call, so later
        # texts fold memoized pieces and windows, and another builds them all
        # in one call; each set must equal the scan of its whole text, and
        # its ids must be exactly the vocabulary ids of its grams.
        n_min, n_max = lengths
        index = GramIndex(n_min, n_max, include_space)
        batch = GramIndex(n_min, n_max, include_space)
        in_one_call = batch.segments(texts)
        for text, together in zip(texts, in_one_call, strict=True):
            want = ngram_set(text, n_min, n_max, include_space)
            for got, built_by in ((index.segments([text])[0], index), (together, batch)):
                assert got.grams == want.grams
                assert got == want
                assert got.index is built_by
                assert set(got.ids.tolist()) == {built_by.vocab[g] for g in want.grams}
        for built_by in (index, batch):
            assert sorted(built_by.vocab.values()) == list(range(len(built_by.vocab)))

    @settings(deadline=None, max_examples=300)
    @given(st.lists(spaced_texts, min_size=1, max_size=6), st.sampled_from(GRAM_LENGTHS), st.booleans())
    @example(["  a\tb  c\n "], (1, 1), True)  # doubled, leading and trailing spaces; n_max = 1
    @example(["  a\tb  c\n "], (1, 1), False)
    @example([" a", "a "], (2, 4), True)
    @example(["\n\t", " "], (1, 3), False)  # whitespace alone: no piece
    def test_memo_keys_are_pieces_and_windows(self, texts, lengths, include_space):
        # The memo holds exactly the texts' pieces and, with include_space,
        # the window at each of their spaces, cut by the rule from the whole
        # text; a piece holds no space and all its grams, a window at least
        # one space and exactly its grams that hold one.  The sets equal
        # ``ngram_set`` of their texts.
        n_min, n_max = lengths
        reach = n_max - 1
        index = GramIndex(n_min, n_max, include_space)
        for text, got in zip(texts, index.segments(texts), strict=True):
            assert got.grams == ngram_set(text, n_min, n_max, include_space).grams
        pieces = {p for text in texts for p in (text.split(" ") if include_space else text.split())}
        windows = {
            text[max(p - reach, 0) : p + 1 + reach]
            for text in texts
            for p, c in enumerate(text)
            if c == " " and include_space
        }
        assert index._parts.keys() == pieces | windows
        assert not any(" " in p for p in pieces) and all(" " in w for w in windows)
        for key, part in index._parts.items():
            grams = index.grams_of(index.gather(np.array([part]))[0])
            full = frozenset(brute_force_grams(key, n_min, n_max))
            assert grams == (spaced_grams(key, n_min, n_max) if key in windows else full)

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.text(alphabet="ab.", max_size=4), min_size=1, max_size=9),
        st.lists(st.tuples(st.integers(0, 8), st.integers(1, 9)), min_size=1, max_size=6),
        st.sampled_from([(a, b) for b in range(1, 6) for a in range(1, b + 1)]),
        st.booleans(),
    )
    @example(["a", "b", "ab", "a", "bab"], [(0, 5), (1, 4), (3, 5)], (1, 5), True)  # 1-character tokens
    @example(["ab", "a", "b", "a"], [(2, 4), (0, 2)], (2, 4), True)
    @example(["ab", "", "a", "", "", "b"], [(0, 6), (1, 5), (2, 6), (3, 6)], (1, 4), True)  # empty pieces
    @example(["ab", "a", "b"], [(1, 3), (0, 3)], (1, 3), True)  # one short piece, first and after another
    def test_segments_equal_ngram_set(self, tokens, bounds, lengths, include_space):
        # Segments of one context, starting at its first token or mid-way,
        # built twice through one index, so the second pass meets memoized
        # tokens and windows, and windows clipped at a segment's start or
        # end.  An empty token stands for a doubled space.
        segments = [
            tokens[start:end] for start, end in bounds if start < end <= len(tokens) and " ".join(tokens[start:end])
        ]
        n_min, n_max = lengths
        index = GramIndex(n_min, n_max, include_space)
        for batch in (segments, segments[::-1]):
            texts = [" ".join(seg) for seg in batch]
            got = index.segments(texts)
            assert len(got) == len(texts)
            assert len({id(s.ids.base) for s in got}) <= 1  # slices of one array
            for text, s in zip(texts, got):
                want = ngram_set(text, n_min, n_max, include_space)
                assert s.grams == want.grams
                assert s == want and s.index is index
                assert set(s.ids.tolist()) == {index.vocab[g] for g in want.grams}

    def test_grams_are_derived_from_ids_on_first_read(self, monkeypatch):
        index = GramIndex(1, 3, True)
        s, folded = index.segments(["ab cd"]) + index.segments(["ab cd"])
        reads = []
        grams_of = index.grams_of
        monkeypatch.setattr(index, "grams_of", lambda ids: reads.append(ids) or grams_of(ids))
        assert s.grams == folded.grams == ngram_set("ab cd", 1, 3, True).grams
        assert s.grams is s.grams
        assert len(reads) == 2
        with pytest.raises(ValueError):
            LingSet(None, "ab cd")
        with pytest.raises(AttributeError):
            s.source = "x"

    def test_number_reuses_the_ids_of_seen_grams(self):
        index = GramIndex(1, 2, True)
        (own,) = index.segments(["ab a"])
        other = ngram_set("ba c", 1, 2, True)
        ids = index.number(other.grams)
        assert sorted(ids.tolist()) == sorted(index.vocab[g] for g in other.grams)
        assert set(ids.tolist()) & set(own.ids.tolist()) == {index.vocab[g] for g in own.grams & other.grams}

    def test_window_extracted_once(self, monkeypatch):
        calls = record_scans(monkeypatch)
        index = GramIndex(1, 3, True)
        (part,) = index.window_parts(["the cat"], ["sat on"])
        assert index.window_parts(["a cat", "the cat"], ["sat", "sat on"]).tolist() == [part, part]
        assert calls == ["at sa"]
        assert window_grams(index, "the cat", "sat on") == {" ", "t ", " s", "at ", "t s", " sa"}

    def test_one_window_one_scan(self, monkeypatch):
        # The window that a segment holds at a space is the one a join of its
        # two sides looks up: "x a " (the rule does not stop at the next
        # space), scanned once for both.  A text's pieces and windows are
        # looked up in text order.
        calls = record_scans(monkeypatch)
        index = GramIndex(1, 3, True)
        (segment,) = index.segments(["x a b"])
        (part,) = index.window_parts(["x"], ["a b"])
        assert calls == ["x", "x a ", "a", " a b", "b"]
        assert index.window_parts(["x a"], ["b"]).tolist() == [index._parts[" a b"]]
        assert index._parts["x a "] == part
        assert segment.grams == ngram_set("x a b", 1, 3, True).grams

    @settings(deadline=None, max_examples=300)
    @given(st.text(alphabet="ab \t", min_size=1, max_size=14), st.integers(0, 13), st.sampled_from(GRAM_LENGTHS))
    @example("ab", 0, (1, 3))  # no space: no window
    @example("a  b", 1, (1, 4))  # an empty piece between two spaces
    @example(" a", 0, (1, 1))  # n_max = 1: every window is " "
    def test_segments_equal_window_parts_keys(self, text, split, lengths):
        # ``segments`` looks up one window per space of the text, in order;
        # the key at each space is ``_window_keys`` of the text's two sides.
        keys = []
        index = GramIndex(*lengths, True)
        scan = index._lookup

        def spy(texts):
            keys.extend(t for t in texts if " " in t)
            return scan(texts)

        index._lookup = spy
        index.segments([text])
        spaces = [p for p, c in enumerate(text) if c == " "]
        assert len(keys) == len(spaces)
        if spaces:
            at = split % len(spaces)
            p = spaces[at]
            assert [keys[at]] == index._window_keys([text[:p]], [text[p + 1 :]])

    # Window sides: sources shorter than a window's reach, empty pieces
    # (doubled spaces), and sides holding spaces, so that a key may hold
    # more than one, as an xy+z tail does.
    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(st.tuples(st.text(alphabet="ab ", max_size=6), st.text(alphabet="ab ", max_size=6)), min_size=1, max_size=8),
        st.sampled_from(GRAM_LENGTHS),
        st.integers(0, 8),
    )
    @example([("a", "b a"), ("a b", "a")], (1, 4), 0)  # one key, "a b a", from two splits
    @example([("ab", "cd"), ("ab", "cd"), ("xab", "cde")], (1, 3), 1)  # repeated and memoized keys
    @example([("ab", "cd")], (1, 1), 0)  # n_max = 1: every window is " "
    @example([("x ab b", "z"), ("x ab", "b")], (1, 4), 0)  # an xy+z tail whose y is shorter than the reach
    @example([("", ""), ("a  ", " b")], (1, 3), 0)
    def test_window_parts_equal_window(self, pairs, lengths, memoized):
        # Some keys are memoized by an earlier batch; the batch's parts must
        # hold the grams that one-at-a-time calls of a fresh index give, the
        # spaced grams of the slice of the joined text that reaches n_max - 1
        # characters either side of the joining space, and with them
        # ``ngram_set`` of the joined text is the union of its sides' and the
        # window's grams.
        n_min, n_max = lengths
        index, one = GramIndex(n_min, n_max, True), GramIndex(n_min, n_max, True)
        index.window_parts([a for a, _ in pairs[:memoized]], [b for _, b in pairs[:memoized]])
        parts = index.window_parts([a for a, _ in pairs], [b for _, b in pairs])
        assert parts.shape == (len(pairs),)

        def grams(text: str) -> frozenset[str]:
            return ngram_set(text, n_min, n_max, True).grams if text else frozenset()

        for (a, b), part in zip(pairs, parts.tolist()):
            window = index.grams_of(index.gather(np.array([part]))[0])
            joined, reach = a + " " + b, n_max - 1
            assert window == window_grams(one, a, b) == window_grams(index, a, b)
            assert window == spaced_grams(joined[max(len(a) - reach, 0) : len(a) + 1 + reach], n_min, n_max)
            assert grams(joined) == grams(a) | grams(b) | window

    def test_an_index_dies_with_its_last_reference(self):
        # Nothing an index holds points back to it: its sets point to it,
        # and its memos hold part numbers.  An index that built sets, scanned
        # windows and made a step scratch dies with its last reference, and
        # its scratch with it, by reference counting alone.
        cfg = EstimatorConfig(n_min=1, n_max=3, include_space=True, joint_mode="concat")
        index = cfg.gram_index()
        xs = index.segments(["cd ab", "ab c"])
        ys = index.segments(["ab cd ab", "c"])
        assert mutual_information(list(zip(xs, ys)), cfg) == mutual_information(
            [(ngram_set(x.source, 1, 3, True), ngram_set(y.source, 1, 3, True)) for x, y in zip(xs, ys)], cfg
        )
        assert any(" " in key for key in index._parts) and index.scratch is not None
        refs = [weakref.ref(index), weakref.ref(index.scratch), weakref.ref(xs[0].ids.base)]
        with collector_disabled():
            del index, xs, ys
            alive = [ref() is not None for ref in refs]
        assert alive == [False, False, False]

    def test_bad_lengths_rejected_and_empty_text_is_the_empty_set(self):
        # Unlike ``ngram_set``, ``segments`` takes "": a concat join of a set
        # whose source is "" reads the set of that source, as ``join``
        # reads ``"" + " " + b``.
        for include_space in (True, False):
            (s,) = GramIndex(1, 3, include_space).segments([""])
            assert s.grams == frozenset() and s.source == ""
        with pytest.raises(ValueError):
            GramIndex(0, 3, True)
        with pytest.raises(ValueError):
            GramIndex(3, 2, True)


class TestHamming:
    def test_identity(self):
        s = ngram_set("abcd", 1, 3, True)
        assert hamming(s, s) == 0

    def test_two_gram_difference(self):
        from setinfo import LingSet

        a = LingSet(grams=frozenset({"a", "b", "ab"}), source="ab")
        b = LingSet(grams=frozenset({"a", "b", "ba"}), source="ba")
        assert hamming(a, b) == 2

    def test_disjoint_sets(self):
        from setinfo import LingSet

        a = LingSet(grams=frozenset({"a", "b", "c"}), source="-")
        b = LingSet(grams=frozenset({"d", "e", "f", "g", "h"}), source="-")
        assert hamming(a, b) == 8

    @given(lingsets, lingsets)
    def test_symmetry(self, a, b):
        assert hamming(a, b) == hamming(b, a)

    @given(lingsets, lingsets)
    def test_identity_of_indiscernibles(self, a, b):
        if hamming(a, b) == 0:
            assert a.grams == b.grams
        if a.grams == b.grams:
            assert hamming(a, b) == 0

    @settings(max_examples=400)
    @given(lingsets, lingsets, lingsets)
    def test_triangle_inequality(self, a, b, c):
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestJoin:
    def test_union_single_grams(self):
        a = ngram_set("a", 1, 1, True)
        b = ngram_set("b", 1, 1, True)
        assert join(a, b, "union", 1, 3, True).grams == frozenset({"a", "b"})

    def test_union_self_idempotent(self):
        s = ngram_set("hello", 1, 3, True)
        assert join(s, s, "union", 1, 3, True).grams == s.grams

    def test_union_source_concatenated(self):
        a = ngram_set("ab", 1, 2, True)
        b = ngram_set("cd", 1, 2, True)
        assert join(a, b, "union", 1, 3, True).source == "ab cd"

    def test_concat_adds_seam_grams(self):
        a = ngram_set("ab", 1, 2, True)
        b = ngram_set("cd", 1, 2, True)
        joined = join(a, b, "concat", 1, 2, True)
        assert joined.grams == frozenset(
            {"a", "b", "c", "d", " ", "ab", "b ", " c", "cd"}
        )

    def test_unknown_mode_rejected(self):
        s = ngram_set("x", 1, 1, True)
        with pytest.raises(ValueError):
            join(s, s, "zip", 1, 3, True)

    @given(lingsets, lingsets)
    def test_union_commutative(self, a, b):
        assert join(a, b, "union", 1, 3, True).grams == join(b, a, "union", 1, 3, True).grams

    @given(lingsets, lingsets, lingsets)
    def test_union_associative(self, a, b, c):
        left = join(join(a, b, "union", 1, 3, True), c, "union", 1, 3, True).grams
        right = join(a, join(b, c, "union", 1, 3, True), "union", 1, 3, True).grams
        assert left == right

    @given(lingsets, lingsets)
    def test_concat_superset_of_union(self, a, b):
        assert join(a, b, "concat", 1, 3, True).grams >= join(a, b, "union", 1, 3, True).grams

    @settings(deadline=None)
    @given(texts, texts, st.sampled_from([(1, 1), (1, 3), (2, 4), (3, 5)]), st.booleans())
    def test_concat_is_union_plus_seam_grams(self, ta, tb, lengths, include_space):
        n_min, n_max = lengths
        a = ngram_set(ta, n_min, n_max, include_space)
        b = ngram_set(tb, n_min, n_max, include_space)
        concat = join(a, b, "concat", n_min, n_max, include_space).grams
        seams = window_grams(GramIndex(n_min, n_max, True), ta, tb) if include_space else frozenset()
        assert concat == a.grams | b.grams | seams

    def test_seam_window_for_unigrams_is_the_space(self):
        index = GramIndex(1, 1, True)
        assert index._window_keys(["abc"], ["def"]) == [" "]
        assert window_grams(index, "abc", "def") == frozenset({" "})

    def test_seam_window_short_segments(self):
        window = {g for g in ngram_set("a b", 1, 4, True).grams if " " in g}
        index = GramIndex(1, 4, True)
        assert index._window_keys(["a"], ["b"]) == ["a b"]
        assert window_grams(index, "a", "b") == window
