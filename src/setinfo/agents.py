"""Segmentation agents, the synthetic structured corpus, and step samples.

An agent's action is a segmentation of text into a surface triple
(x, y, z) of strings.  Three sources are supported: a random splitter that
cuts a fixed length context at two uniform indices, a heuristic
subject/predicate/object extractor driven by a verb lexicon, and a loader
for externally produced gold triples (JSONL).  A small subject-verb-object
sentence generator with verb-conditioned object preferences provides a
self-contained corpus whose structured triples are known exactly.
``build_step_samples`` turns the surfaces into gram-set triplets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import ConfigInvalid, MalformedLine, read_jsonl, require_file, write_jsonl
from .corpus import (
    Document,
    DocumentCollection,
    _eligible,
    _lemire,
    iter_sentences,
    normalize_text,
    sample_contexts,
)
from .ngrams import GramIndex, LingSet


class ContextTooShort(ValueError):
    """A context has too few tokens to cut into three nonempty segments."""


AGENT_KINDS = ("random", "extractor", "gold_file")
SENTENCES_PER_DOC = 50  # synthetic corpus: sentences packed into one document
_PREFERRED_SIZE = 4  # built-in grammar: objects in each verb's preferred subset

_DATA_DIR = Path(__file__).parent / "data"
DEFAULT_LEXICON_PATH = _DATA_DIR / "verb_lexicon.txt"


Surfaces = tuple[str, str, str]  # one action's (x, y, z) segment texts


@dataclass(frozen=True)
class Triplet:
    """One agent action as the gram sets of its (x, y, z) segments."""

    x: LingSet
    y: LingSet
    z: LingSet


@dataclass(frozen=True)
class StepSample:
    """The multiset of actions taken at one simulation step."""

    k: int
    triplets: tuple[Triplet, ...]


@dataclass(frozen=True)
class AgentSpec:
    """One configured agent: its kind and the files it reads.

    A ``random`` agent cuts corpus contexts; a ``gold_file`` agent replays
    the triples in ``path`` (the synthetic gold triples when unset); an
    ``extractor`` mines the corpus with the verbs in ``lexicon_path``.
    ``trajectory.resolve_inputs`` reads these sources.
    """

    kind: str
    name: str = ""
    path: str | Path | None = None
    lexicon_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.kind not in AGENT_KINDS:
            raise ValueError(
                f"agent.{self.name or self.kind}.kind must be one of {AGENT_KINDS}, got {self.kind!r}"
            )
        if not self.name:
            object.__setattr__(self, "name", self.kind)


def load_verb_lexicon(path: str | Path | None = None) -> frozenset[str]:
    """Read a one-token-per-line verb list; blank lines and # comments skipped."""
    p = Path(path) if path is not None else DEFAULT_LEXICON_PATH
    tokens = []
    for line in p.read_text(encoding="utf-8").splitlines():
        word = line.strip()
        if word and not word.startswith("#"):
            tokens.append(word.lower())
    return frozenset(tokens)


def heuristic_extract(sentence: str, verb_lexicon: frozenset[str]) -> Surfaces | None:
    """Split a sentence around its first run of lexicon tokens.

    The predicate is the maximal contiguous run of lexicon tokens starting
    at the first hit; everything before is the subject, everything after
    the object.  Returns None when there is no hit or either side would be
    empty, so each sentence yields at most one triple.
    """
    tokens = sentence.split()
    first = next((i for i, tok in enumerate(tokens) if tok in verb_lexicon), None)
    if first is None:
        return None
    last = first
    while last + 1 < len(tokens) and tokens[last + 1] in verb_lexicon:
        last += 1
    if first == 0 or last == len(tokens) - 1:
        return None
    return (
        " ".join(tokens[:first]),
        " ".join(tokens[first : last + 1]),
        " ".join(tokens[last + 1 :]),
    )


def load_triplets(path: str | Path) -> list[Surfaces]:
    """Read gold triples from JSONL ({"x","y","z"} strings per line).

    Surfaces are normalized; a line whose fields are missing, non-string,
    or empty after normalization raises MalformedLine.
    """
    triplets: list[Surfaces] = []
    for line_no, obj in read_jsonl(path, ("x", "y", "z")):
        surfaces = tuple(normalize_text(obj[name]) for name in "xyz")
        for name, text in zip("xyz", surfaces):
            if not text:
                raise MalformedLine(path, line_no, f"empty {name!r} field")
        triplets.append(surfaces)
    return triplets


def write_triplets(triplets: Iterable[Surfaces], path: str | Path) -> None:
    """Write surface triples as JSONL, the same shape load_triplets reads."""
    write_jsonl((dict(zip("xyz", t)) for t in triplets), path)


@dataclass(frozen=True)
class SynthGrammar:
    """Phrase pools for the synthetic corpus.

    Each verb owns a preferred subset of the object pool; objects are drawn
    from it with probability ``p_pref`` and uniformly from the whole pool
    otherwise, which plants a tunable predicate-object dependence while
    subjects stay independent.
    """

    subjects: tuple[str, ...]
    verbs: tuple[str, ...]
    objects: tuple[str, ...]
    preferred: dict[str, tuple[str, ...]] = field(default_factory=dict)
    p_pref: float = 0.8

    def __post_init__(self) -> None:
        for pool in ("subjects", "verbs", "objects"):
            if not getattr(self, pool):
                raise ValueError(f"grammar.{pool} must be non-empty")
        if not 0.0 <= self.p_pref <= 1.0:
            raise ValueError(f"grammar.p_pref must be in [0, 1], got {self.p_pref}")
        for verb in self.verbs:
            if not self.preferred.get(verb):
                raise ValueError(f"grammar.preferred.{verb} must be non-empty")


_SUBJECTS = (
    "the young engineer", "a tired nurse", "the old farmer", "a curious student",
    "the night watchman", "a seasoned pilot", "the village baker", "a quiet librarian",
    "the senior analyst", "a wandering poet", "the field medic", "a junior clerk",
    "the tall gardener", "a patient teacher", "the busy mechanic", "a careful jeweler",
    "the local fisherman", "a brave firefighter", "the head chef", "a shy painter",
    "the veteran sailor", "a clever locksmith", "the stern judge", "a cheerful courier",
)

_VERBS = (
    "repairs", "examines", "paints", "carries", "watches", "measures",
    "cleans", "collects", "delivers", "guards", "sharpens", "stacks",
)

_OBJECTS = (
    "the diesel engine", "a copper kettle", "the wooden fence", "a heavy crate",
    "the harbor lights", "a silver coin", "the garden wall", "a broken clock",
    "the market stall", "a woolen blanket", "the iron gate", "a glass bottle",
    "the stone bridge", "a leather satchel", "the brass lantern", "a paper map",
    "the oak table", "a steel blade", "the velvet curtain", "a clay pot",
    "the canvas tent", "a bronze bell", "the marble statue", "a cotton sack",
)


def default_grammar(p_pref: float = SynthGrammar.p_pref) -> SynthGrammar:
    """Built-in pools; preferred subsets tile the object pool round-robin so
    the marginal object distribution stays uniform."""
    preferred: dict[str, tuple[str, ...]] = {}
    n_obj = len(_OBJECTS)
    for i, verb in enumerate(_VERBS):
        start = (i * _PREFERRED_SIZE) % n_obj
        subset = tuple(_OBJECTS[(start + j) % n_obj] for j in range(_PREFERRED_SIZE))
        preferred[verb] = subset
    return SynthGrammar(
        subjects=_SUBJECTS,
        verbs=_VERBS,
        objects=_OBJECTS,
        preferred=preferred,
        p_pref=p_pref,
    )


def synth_corpus(
    n_sentences: int,
    rng: np.random.Generator,
    grammar: SynthGrammar | None = None,
    sentences_per_doc: int = SENTENCES_PER_DOC,
) -> tuple[DocumentCollection, list[Surfaces]]:
    """Generate subject-verb-object sentences plus their gold surface triples.

    The raw sentences, packed into documents, feed the random agent; the
    gold triples feed the structured agent.  Deterministic for a fixed
    generator state.  The gold list holds one tuple object per distinct
    triple value, however many sentences repeat it (about 2.8k of 12000
    with the built-in grammar).  Each document's text is the space-join of
    its triples' phrases; its token list is built by ``DocumentCollection``,
    which splits each text and shares the tokens' strings, so "the" is one
    object however many sentences hold it.

    The draws are those of ``_scalar_triples``' loop, taken in one batch:
    each sentence draws a subject, a verb, a coin that picks the object pool
    (``rng.random() < p_pref``) and an object, and ``_batch_triples``
    rebuilds those draws from the generator's raw words and leaves the
    generator in the state the loop leaves.  The loop itself runs, from the
    state the batch started at, when the generator is not PCG64, when a pool
    holds one phrase, or when a bounded draw would have been rejected.
    The batch builds only the distinct tuples; the loop shares each repeat
    through a table.
    """
    grammar = grammar if grammar is not None else default_grammar()
    gold = _batch_triples(n_sentences, rng, grammar)
    if gold is None:
        gold = _scalar_triples(n_sentences, rng, grammar)
    documents = [
        Document(
            id=f"synthetic-{d_start // sentences_per_doc:04d}",
            text=" ".join(chain.from_iterable(gold[d_start : d_start + sentences_per_doc])),
            source_label="synthetic",
        )
        for d_start in range(0, len(gold), sentences_per_doc)
    ]
    return DocumentCollection(documents), gold


def _scalar_triples(n_sentences: int, rng: np.random.Generator, grammar: SynthGrammar) -> list[Surfaces]:
    """The reference draw: four generator calls per sentence; a repeated triple is the tuple first drawn."""
    gold: list[Surfaces] = []
    shared: dict[Surfaces, Surfaces] = {}
    for _ in range(n_sentences):
        subject = grammar.subjects[int(rng.integers(len(grammar.subjects)))]
        verb = grammar.verbs[int(rng.integers(len(grammar.verbs)))]
        if rng.random() < grammar.p_pref:
            pool = grammar.preferred[verb]
        else:
            pool = grammar.objects
        obj = pool[int(rng.integers(len(pool)))]
        triple = (subject, verb, obj)
        gold.append(shared.setdefault(triple, triple))
    return gold


def _batch_triples(n_sentences: int, rng: np.random.Generator, grammar: SynthGrammar) -> list[Surfaces] | None:
    """``_scalar_triples``' result from one ``random_raw`` call, or None where it cannot.

    PCG64 gives 64-bit words.  A bounded draw takes a 32-bit value: the
    buffered high half of the last word if one is left, else the low half of
    a new word, buffering its high half.  The coin takes a whole new word,
    ``(w >> 11) * 2**-53``, and leaves the buffer alone.  So the subject,
    verb and object draws read, in order, the halves of every word that is
    not a coin, after the buffered half; sentence i's coin is word
    ceil((3i + 2 - b) / 2) + i, where b is 1 if a half was buffered.  None
    (with the generator as it was) for another bit generator, a one-phrase
    pool, for which numpy draws nothing, or a rejected draw.
    """
    bitgen = rng.bit_generator
    preferred = [grammar.preferred[v] for v in grammar.verbs]
    pools = [grammar.subjects, grammar.verbs, grammar.objects, *preferred]
    if type(bitgen) is not np.random.PCG64 or min(map(len, pools)) < 2:
        return None
    n = max(n_sentences, 0)
    start = bitgen.state
    b = start["has_uint32"]
    i = np.arange(n)
    coin_at = (3 * i + 3 - b) // 2 + i
    words = bitgen.random_raw((3 * n + 1 - b) // 2 + n)
    halves = np.delete(words, coin_at).astype("<u8", copy=False).view("<u4")  # low half first
    if b:
        halves = np.insert(halves, 0, start["uinteger"])
    u = halves[: 3 * n].reshape(n, 3)

    sizes = np.array([len(p) for p in preferred])
    subject, rej_s = _lemire(u[:, 0], len(grammar.subjects))
    verb, rej_v = _lemire(u[:, 1], len(grammar.verbs))
    verb = verb.astype(np.intp)
    pref = (words[coin_at] >> np.uint64(11)) * 2.0**-53 < grammar.p_pref
    obj, rej_o = _lemire(u[:, 2], np.where(pref, sizes[verb], len(grammar.objects)))
    if (rej_s | rej_v | rej_o).any():
        bitgen.state = start
        return None
    state = bitgen.state
    state["has_uint32"] = len(halves) - 3 * n
    state["uinteger"] = int(halves[-1]) if len(halves) else start["uinteger"]
    bitgen.state = state

    # Each verb's preferred pool follows the object pool in one phrase table.
    offsets = len(grammar.objects) + np.cumsum(sizes) - sizes
    obj = obj.astype(np.intp) + np.where(pref, offsets[verb], 0)
    objects = [*grammar.objects, *(o for p in preferred for o in p)]
    # One tuple per distinct triple: phrases are numbered by value, so a
    # preferred object is the same phrase as its copy in the object pool.
    (s_code, s_names), (v_code, v_names), (o_code, o_names) = map(
        _numbered, (grammar.subjects, grammar.verbs, objects)
    )
    dims = (len(s_names), len(v_names), len(o_names))
    keys = np.ravel_multi_index((s_code[subject.astype(np.intp)], v_code[verb], o_code[obj]), dims).tolist()
    # dict.fromkeys, not np.unique, which raised a run's peak RSS by 0.3 MB.
    distinct = list(dict.fromkeys(keys))
    s, v, o = np.unravel_index(np.array(distinct, dtype=np.intp), dims)
    triples = dict(
        zip(
            distinct,
            zip(
                map(s_names.__getitem__, s.tolist()),
                map(v_names.__getitem__, v.tolist()),
                map(o_names.__getitem__, o.tolist()),
            ),
        )
    )
    return list(map(triples.__getitem__, keys))


def _numbered(phrases: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Each phrase's number among the distinct phrases, and those phrases in order of first sight."""
    number: dict[str, int] = {}
    codes = np.array([number.setdefault(p, len(number)) for p in phrases], dtype=np.intp)
    return codes, list(number)


def resolve_pool(spec: AgentSpec, corpus: DocumentCollection) -> list[Surfaces]:
    """The triples a gold_file agent reads from ``path`` or an extractor mines from
    ``corpus``; ConfigInvalid naming the key if a file is missing or the pool empty."""
    if spec.kind == "gold_file":
        key = f"agent.{spec.name}.path"
        pool = load_triplets(require_file(spec.path, key))
    elif spec.kind == "extractor":
        key = f"agent.{spec.name}.lexicon"
        lexicon = load_verb_lexicon(
            None if spec.lexicon_path is None else require_file(spec.lexicon_path, key)
        )
        extracted = (heuristic_extract(sentence, lexicon) for sentence in iter_sentences(corpus))
        pool = [surfaces for surfaces in extracted if surfaces is not None]
    else:
        raise ValueError(f"agent kind {spec.kind!r} has no triple pool")
    if not pool:
        raise ConfigInvalid(f"{key}: agent {spec.name!r} has an empty triple pool")
    return pool


def build_step_samples(
    kind: str,
    source: Sequence[Sequence[str]],
    k_max: int,
    per_step: int,
    rng: np.random.Generator,
    context_length: int,
    gram_set: GramIndex,
) -> Iterator[StepSample]:
    """Yield k_max step samples of exactly per_step triplets each, one at a time.

    A ``random`` agent's ``source`` is the token lists of the corpus it
    cuts contexts of (``DocumentCollection.token_lists``); any other kind's
    is its resolved pool of surface triples, sampled with replacement.  The
    source is checked here, before the first sample is asked for: a context
    shorter than three tokens raises ContextTooShort, a corpus without a
    list that long CorpusTooSmall, and an empty pool ValueError.  Every
    step draws from its own generator spawned off ``rng``, which is spawned
    as the step is built, so the sequence is that of ``rng.spawn(k_max)``
    as long as nothing else spawns off ``rng`` in between.  A random step
    draws its contexts in one ``sample_contexts`` call, then cuts each, in
    the order returned, at a uniformly chosen pair of indices
    1 <= i < j <= L-1: each of the three segments is nonempty, and all
    C(L-1, 2) pairs are equally likely.  A cut takes the draws of
    ``choice(L-1, 2, replace=False)``, which is Floyd's algorithm: a draw
    below L-2, a draw below L-1 that becomes L-2 if it repeats the first,
    and a draw below 2 that only shuffles the two picks.  The step's cuts
    are drawn in one ``integers`` call.  This is the one place text becomes
    gram sets: each distinct segment text of a step is turned into a ``LingSet`` once, by
    ``gram_set`` (in a run, the run's index), and every triplet of the step
    holding that text shares it.  A step's new sets are built in one
    ``GramIndex.segments`` call, from their texts.  What is kept from one
    step to the next: the index's memo, and, for a pool agent, one set
    per distinct pool text drawn so far (the pool bounds them), until the
    returned generator is dropped or runs out, so that each pool text is
    built once.  A random step keeps none of its sets, and every step's
    sample is freed once its caller drops it.
    """
    if kind == "random":
        if context_length < 3:
            raise ContextTooShort(f"need >= 3 tokens to split, got {context_length}")
        _eligible(source, context_length)
        floyd = (context_length - 2, context_length - 1, 2)  # the bounds of a cut's three draws
    elif not source:
        raise ValueError(f"a {kind} agent needs a nonempty pool of triples")

    pool_sets: dict[str, LingSet] = {}  # at most one per text of the pool

    def build(k: int, step_rng: np.random.Generator) -> StepSample:
        if kind == "random":
            windows = sample_contexts(source, context_length, per_step, step_rng)
            first, second, _ = step_rng.integers(0, floyd, size=(per_step, 3)).T
            second = np.where(second == first, context_length - 2, second)
            low = (np.minimum(first, second) + 1).tolist()
            high = (np.maximum(first, second) + 1).tolist()
            texts = [" ".join(seg) for toks, i, j in zip(windows, low, high) for seg in (toks[:i], toks[i:j], toks[j:])]
            sets: dict[str, LingSet] = {}
        else:
            picks = step_rng.integers(len(source), size=per_step).tolist()
            texts = [text for i in picks for text in source[i]]
            sets = pool_sets
        new = [text for text in dict.fromkeys(texts) if text not in sets]
        sets.update(zip(new, gram_set.segments(new)))
        flat = list(map(sets.__getitem__, texts))
        return StepSample(k, tuple(map(Triplet, flat[0::3], flat[1::3], flat[2::3])))

    return (build(k, rng.spawn(1)[0]) for k in range(1, k_max + 1))
