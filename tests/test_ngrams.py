from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setinfo import EmptyText, hamming, join, ngram_set
from setinfo.ngrams import seam_grams

from conftest import lingsets, texts


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
        seams = seam_grams(ta, tb, n_min, n_max) if include_space else frozenset()
        assert concat == a.grams | b.grams | seams

    def test_seam_window_for_unigrams_is_the_space(self):
        assert seam_grams("abc", "def", 1, 1) == frozenset({" "})

    def test_seam_window_short_segments(self):
        assert seam_grams("a", "b", 1, 4) == ngram_set("a b", 1, 4, True).grams
