"""Text loading, normalization, and fixed-length context sampling.

Documents come from a directory of .txt files (subdirectory name = source
label) or from a JSONL manifest with ``id``/``text``/``source_label`` per
line.  Contexts are fixed-length token windows drawn with replacement from
uniformly chosen documents and offsets; sampling never mutates the
collection, so one loaded collection can feed any number of runs.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import MalformedLine, read_jsonl, write_jsonl


class CorpusTooSmall(ValueError):
    """No document is long enough to supply a context window."""


_WHITESPACE = re.compile(r"\s+")


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    source_label: str = ""


@dataclass(frozen=True)
class Context:
    """A fixed-length window of tokens plus where it came from."""

    tokens: tuple[str, ...]
    doc_id: str
    offset: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


class DocumentCollection:
    """Immutable bag of documents with their token lists precomputed.

    The collection builds and owns the token lists, one per document, each
    equal to ``tokenize_words(doc.text)``.  Every token passes through one
    table per collection, so each distinct token is one ``str`` object that
    every list holding it references: the lists cost one reference per
    token, and the strings one object per distinct token.
    """

    def __init__(self, documents: Iterable[Document]) -> None:
        self.documents: list[Document] = list(documents)
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise ValueError(f"duplicate document id: {doc.id!r}")
            seen.add(doc.id)
            if not doc.text:
                raise ValueError(f"document {doc.id!r} has empty text")
        shared: dict[str, str] = {}
        self.token_lists: list[list[str]] = [
            list(map(shared.setdefault, toks, toks))
            for toks in (tokenize_words(doc.text) for doc in self.documents)
        ]

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def labels(self) -> list[str]:
        return sorted({doc.source_label for doc in self.documents})


def normalize_text(raw: str, strip_headers: bool = False) -> str:
    """Lowercase, collapse whitespace runs, strip; optionally drop header lines.

    Header stripping removes everything up to and including the first blank
    line (the usual shape of newsgroup messages); if no blank line exists
    the text is kept whole.  Idempotent.
    """
    text = raw
    if strip_headers:
        lines = text.splitlines()  # a terminal newline is not a blank line
        for i, line in enumerate(lines):
            if not line.strip():
                text = "\n".join(lines[i + 1 :])
                break
    return _WHITESPACE.sub(" ", text).strip().lower()


def tokenize_words(text: str) -> list[str]:
    """Split normalized text on spaces; punctuation stays glued to its word."""
    return text.split()


def split_sentences(text: str) -> list[str]:
    """Split normalized text after '.', '!' or '?' followed by a space."""
    pieces = re.split(r"(?<=[.!?]) ", text)
    return [p.strip() for p in pieces if p.strip()]


def sample_contexts(
    docs: DocumentCollection,
    length: int,
    n: int,
    rng: np.random.Generator,
) -> list[Context]:
    """Draw n token windows of exactly ``length`` tokens, then shuffle them.

    Each draw picks a document uniformly among those long enough, then an
    offset uniformly among its valid window starts.  Draws are with
    replacement, so repeated windows are possible and expected.
    """
    if length < 1:
        raise ValueError(f"context length must be >= 1, got {length}")
    eligible = [
        (idx, toks)
        for idx, toks in enumerate(docs.token_lists)
        if len(toks) >= length
    ]
    if not eligible:
        raise CorpusTooSmall(f"no document has >= {length} tokens")
    out: list[Context] = []
    for _ in range(n):
        doc_idx, toks = eligible[int(rng.integers(len(eligible)))]
        offset = int(rng.integers(len(toks) - length + 1))
        out.append(
            Context(
                tokens=tuple(toks[offset : offset + length]),
                doc_id=docs.documents[doc_idx].id,
                offset=offset,
            )
        )
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _load_manifest(path: Path, strip_headers: bool) -> list[Document]:
    documents: list[Document] = []
    for line_no, obj in read_jsonl(path, ("id", "text"), optional=("source_label",)):
        text = normalize_text(obj["text"], strip_headers)
        if not text:
            raise MalformedLine(path, line_no, "text is empty after normalization")
        documents.append(Document(id=obj["id"], text=text, source_label=obj.get("source_label", "")))
    return documents


def _load_directory(path: Path, strip_headers: bool) -> list[Document]:
    documents: list[Document] = []
    for file in sorted(path.rglob("*.txt")):
        rel = file.relative_to(path)
        label = rel.parent.as_posix()
        if label == ".":
            label = ""
        text = normalize_text(file.read_text(encoding="utf-8", errors="replace"), strip_headers)
        if not text:
            continue  # header-only or blank files carry no content
        documents.append(Document(id=rel.as_posix(), text=text, source_label=label))
    return documents


def load_documents(
    path: str | Path,
    strip_headers: bool = False,
    groups: Sequence[str] | None = None,
) -> DocumentCollection:
    """Load a directory of .txt files or a JSONL manifest into a collection.

    ``groups``, when given, keeps only documents whose source label is in
    the list (used by the topic-group preset configs).
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"corpus path does not exist: {p}")
    documents = _load_directory(p, strip_headers) if p.is_dir() else _load_manifest(p, strip_headers)
    if groups is not None:
        wanted = set(groups)
        documents = [d for d in documents if d.source_label in wanted]
    return DocumentCollection(documents)


def write_manifest(docs: DocumentCollection, path: str | Path) -> None:
    """Write a collection back out as a JSONL manifest (one doc per line)."""
    write_jsonl(map(asdict, docs), path)


def iter_sentences(docs: DocumentCollection) -> Iterator[str]:
    """Yield every sentence of the collection, document by document."""
    for doc in docs:
        yield from split_sentences(doc.text)
