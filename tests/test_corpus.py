from __future__ import annotations

import json
from itertools import chain

import numpy as np
import pytest
from hypothesis import given

from setinfo import (
    CorpusTooSmall,
    Document,
    DocumentCollection,
    MalformedLine,
    load_documents,
    normalize_text,
    sample_contexts,
    split_sentences,
    tokenize_words,
    write_manifest,
)

from conftest import one_object_per_value, texts


class TestNormalizeText:
    def test_collapse_and_lowercase(self):
        assert normalize_text("Hello   WORLD\n") == "hello world"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_tabs_and_runs(self):
        assert normalize_text("A\tB  C") == "a b c"

    def test_strip_headers_drops_up_to_first_blank_line(self):
        raw = "From: someone\nSubject: things\n\nThe Body Text\nmore body"
        assert normalize_text(raw, strip_headers=True) == "the body text more body"

    def test_strip_headers_without_blank_line_keeps_text(self):
        raw = "no blank line here\njust text"
        assert normalize_text(raw, strip_headers=True) == "no blank line here just text"

    def test_strip_headers_ignores_terminal_newline(self):
        # "body\n" is one line; the trailing newline must not count as the
        # blank separator and wipe the document.
        assert normalize_text("Single line body.\n", strip_headers=True) == "single line body."

    @given(texts)
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(texts)
    def test_idempotent_with_header_stripping(self, text):
        once = normalize_text(text, strip_headers=True)
        assert normalize_text(once, strip_headers=True) == once


class TestTokenizeWords:
    def test_basic(self):
        assert tokenize_words("the cat sat") == ["the", "cat", "sat"]

    def test_punctuation_stays_attached(self):
        assert tokenize_words("a b.") == ["a", "b."]

    def test_empty(self):
        assert tokenize_words("") == []


class TestSplitSentences:
    def test_period_and_bang(self):
        assert split_sentences("a b. c d!") == ["a b.", "c d!"]

    def test_no_terminator(self):
        assert split_sentences("no terminator") == ["no terminator"]

    def test_question_then_period(self):
        assert split_sentences("x? y.") == ["x?", "y."]

    def test_empty_pieces_dropped(self):
        assert split_sentences("") == []


def collection(*token_counts: int) -> DocumentCollection:
    docs = [
        Document(id=f"d{i}", text=" ".join(f"w{i}t{j}" for j in range(count)))
        for i, count in enumerate(token_counts)
    ]
    return DocumentCollection(docs)


class TestSampleContexts:
    # Token "w{i}t{j}" is token j of list i, so a window names where it came from.
    def test_single_window_document(self):
        docs = collection(10)
        rng = np.random.default_rng(0)
        windows = sample_contexts(docs.token_lists, 10, 3, rng)
        assert len(windows) == 3
        assert all(list(window) == docs.token_lists[0] for window in windows)

    def test_too_small_corpus(self):
        docs = collection(9)
        with pytest.raises(CorpusTooSmall):
            sample_contexts(docs.token_lists, 10, 1, np.random.default_rng(0))

    def test_seeded_determinism(self):
        docs = collection(25, 40, 13)
        first = sample_contexts(docs.token_lists, 10, 50, np.random.default_rng(42))
        second = sample_contexts(docs.token_lists, 10, 50, np.random.default_rng(42))
        assert first == second

    def test_windows_map_back_to_documents(self):
        docs = collection(25, 40)
        rng = np.random.default_rng(7)
        windows = sample_contexts(docs.token_lists, 10, 100, rng)
        assert len(windows) == 100
        for window in windows:
            idx, offset = map(int, window[0][1:].split("t"))
            assert list(window) == docs.token_lists[idx][offset : offset + 10]

    def test_short_documents_never_sampled(self):
        docs = collection(5, 30)
        rng = np.random.default_rng(3)
        assert all(
            window[0].startswith("w1t") for window in sample_contexts(docs.token_lists, 10, 200, rng)
        )


class TestLoadDocuments:
    def test_directory_with_txt_files(self, tmp_path):
        (tmp_path / "groupa").mkdir()
        (tmp_path / "groupa" / "one.txt").write_text("First DOC here")
        (tmp_path / "two.txt").write_text("second doc")
        docs = load_documents(tmp_path)
        assert len(docs) == 2
        by_id = {d.id: d for d in docs}
        assert by_id["groupa/one.txt"].source_label == "groupa"
        assert by_id["groupa/one.txt"].text == "first doc here"
        assert by_id["two.txt"].source_label == ""

    def test_groups_filter(self, tmp_path):
        for label in ("alpha", "beta"):
            (tmp_path / label).mkdir()
            (tmp_path / label / "doc.txt").write_text(f"text for {label}")
        docs = load_documents(tmp_path, groups=["beta"])
        assert [d.source_label for d in docs] == ["beta"]

    def test_directory_bytes_that_are_not_utf8_become_replacement_characters(self, tmp_path):
        # A directory corpus is read with errors="replace", since newsgroup
        # dumps are commonly latin-1; a manifest rejects such a line instead.
        (tmp_path / "latin.txt").write_bytes(b"caf\xe9 \xff end")
        (doc,) = load_documents(tmp_path)
        assert doc.text == "caf\ufffd \ufffd end"
        manifest = tmp_path / "corpus.jsonl"
        manifest.write_bytes(b'{"id": "a", "text": "\xff"}\n')
        with pytest.raises(MalformedLine, match="line 1: invalid UTF-8"):
            load_documents(manifest)

    def test_empty_directory_is_valid(self, tmp_path):
        docs = load_documents(tmp_path)
        assert len(docs) == 0

    def test_manifest_round_trip(self, tmp_path):
        docs = DocumentCollection(
            [Document(id="a", text="alpha text", source_label="g")]
        )
        path = tmp_path / "manifest.jsonl"
        write_manifest(docs, path)
        loaded = load_documents(path)
        assert loaded.documents == docs.documents

    def test_manifest_missing_text_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"id": "ok", "text": "fine"})
            + "\n"
            + json.dumps({"id": "broken"})
            + "\n"
        )
        with pytest.raises(MalformedLine) as err:
            load_documents(path)
        assert err.value.line_no == 2
        assert str(err.value) == f"{path}: line 2: missing or non-string 'text' field"

    def test_manifest_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(MalformedLine) as err:
            load_documents(path)
        assert err.value.line_no == 2
        assert str(err.value) == f"{path}: line 2: invalid JSON (Expecting value)"

    @pytest.mark.parametrize("label", [None, 3, ["g"]], ids=["null", "number", "list"])
    def test_manifest_non_string_source_label(self, tmp_path, label):
        # Absent, a label is ""; present, it must be a string, or a null
        # would have become the label "None".
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "text": "x"}) + "\n")
        assert [d.source_label for d in load_documents(path)] == [""]
        with open(path, "a") as fh:
            fh.write(json.dumps({"id": "b", "text": "y", "source_label": label}) + "\n")
        with pytest.raises(MalformedLine) as err:
            load_documents(path, groups=["None"])
        assert (err.value.path, err.value.line_no) == (path, 2)
        assert str(err.value) == f"{path}: line 2: non-string 'source_label' field"

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_documents(tmp_path / "nope")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            DocumentCollection(
                [Document(id="same", text="a"), Document(id="same", text="b")]
            )


class TestSharedTokens:
    """A collection holds one string per distinct token."""

    def test_a_loaded_manifest_shares_repeated_words(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        raw = ["The cat saw the dog", "the DOG saw  a cat.", "cat cat the cat"]
        path.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n" for i, t in enumerate(raw)))
        docs = load_documents(path)
        assert docs.token_lists == [normalize_text(t).split() for t in raw]
        assert one_object_per_value(chain.from_iterable(docs.token_lists))
