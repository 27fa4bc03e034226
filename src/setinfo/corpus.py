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


def _eligible(token_lists: Sequence[Sequence[str]], length: int) -> list[Sequence[str]]:
    """The token lists a window of ``length`` tokens fits in, in order; CorpusTooSmall if none."""
    if length < 1:
        raise ValueError(f"context length must be >= 1, got {length}")
    eligible = [toks for toks in token_lists if len(toks) >= length]
    if not eligible:
        raise CorpusTooSmall(f"no document has >= {length} tokens")
    return eligible


def sample_contexts(
    token_lists: Sequence[Sequence[str]],
    length: int,
    n: int,
    rng: np.random.Generator,
) -> list[Sequence[str]]:
    """Draw n token windows of exactly ``length`` tokens, then shuffle them.

    ``token_lists`` are the documents' token lists (in a run,
    ``DocumentCollection.token_lists``); a window is a slice of one of them.
    Each draw picks a document uniformly among those long enough, then an
    offset uniformly among its valid window starts; draws are with
    replacement, so repeated windows are possible and expected.  The draws,
    and the state ``rng`` is left in, are those of a loop that takes
    ``rng.integers(len(eligible))`` then ``rng.integers(len(toks) - length
    + 1)`` per window and returns the windows in the order of
    ``rng.permutation(n)``, for any bit generator.  Every draw reads 32-bit
    ``next_uint32`` values:
    - a document and an offset per window.  numpy takes no value for a
      range of one value: the document of a one-document corpus, or the
      offset in a document of exactly ``length`` tokens.  So a window takes
      two values, one or none, and which depends on the document drawn.
      The 2n values the n windows can take at most are drawn in one
      ``integers(2**32, dtype=uint32)`` call, each is decoded by Lemire's
      rule as if it were a document draw, and the windows are walked in
      order to find the value each one starts at.  If they took fewer than
      2n values, the generator is rewound and takes exactly as many.  Where
      a draw is rejected, the pairs are drawn one by one from the starting
      state;
    - ``permutation(n)``'s, decoded by ``_permutation``.
    """
    eligible = _eligible(token_lists, length)
    starts = np.fromiter(map(len, eligible), dtype=np.int64, count=len(eligible)) - (length - 1)
    start = rng.bit_generator.state
    u = rng.integers(2**32, size=2 * n, dtype=np.uint32)
    # Each value read as a document draw (all 0 for one document, which
    # takes none), and how many values a window whose draws start there takes.
    document, rej_d = _lemire(u, len(eligible))
    document = document.astype(np.intp)
    lead = int(len(eligible) > 1)
    takes = (lead + (starts[document] > 1)).tolist()
    at, taken = [], 0
    for _ in range(n):
        at.append(taken)
        taken += takes[taken]
    at = np.array(at, dtype=np.intp)
    pick = document[at]
    offset, rej_o = _lemire(u[at + lead], starts[pick])
    if (rej_d[at] | rej_o).any():
        rng.bit_generator.state = start
        pick, offset = [], []
        for _ in range(n):
            pick.append(int(rng.integers(len(eligible))))
            offset.append(int(rng.integers(starts[pick[-1]])))
    else:
        pick, offset = pick.tolist(), offset.tolist()
        if taken < 2 * n:
            rng.bit_generator.state = start
            rng.integers(2**32, size=taken, dtype=np.uint32)
    return [eligible[pick[c]][offset[c] : offset[c] + length] for c in _permutation(n, rng)]


def _lemire(u: np.ndarray, n: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """Decode 32-bit draws ``u`` as ``Generator.integers(n)`` does (Lemire's method).

    Returns ``(u * n) >> 32`` and whether each draw is rejected, i.e. its
    low 32 bits fall below ``(2**32 - n) % n``; the generator would then
    discard it and draw again.  Needs ``1 <= n <= 2**32``; for n = 1, for
    which numpy takes no draw, every value decodes as 0 and none is rejected.
    """
    n = np.asarray(n, dtype=np.uint64)
    m = np.multiply(u, n, dtype=np.uint64)
    return m >> np.uint64(32), (m & np.uint64(0xFFFFFFFF)) < (2**32 - n) % n


def _permutation(n: int, rng: np.random.Generator) -> list[int]:
    """``rng.permutation(n)``, with the same draws and final state.

    numpy shuffles ``arange(n)`` from the back: for i = n-1 .. 1 it takes
    32-bit draws, masked to i's bit length, until one is at most i, and
    swaps positions i and that one.  Every position left takes at least one
    draw, so the draws are taken as many at a time as positions are left,
    which never reads past the shuffle's last draw.
    """
    order = list(range(n))
    i = n - 1
    while i > 0:
        for u in rng.integers(2**32, size=i, dtype=np.uint32).tolist():
            j = u & ((1 << i.bit_length()) - 1)
            if j <= i:
                order[i], order[j] = order[j], order[i]
                i -= 1
    return order


def _load_manifest(path: Path, strip_headers: bool) -> list[Document]:
    documents: list[Document] = []
    first_seen: dict[str, int] = {}  # each id's line
    for line_no, obj in read_jsonl(path, ("id", "text"), optional=("source_label",)):
        first = first_seen.setdefault(obj["id"], line_no)
        if first != line_no:
            raise MalformedLine(path, line_no, f"duplicate document id {obj['id']!r} (first on line {first})")
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
