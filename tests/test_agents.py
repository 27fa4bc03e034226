from __future__ import annotations

import gc
import inspect
import json
import tracemalloc
import weakref
from dataclasses import replace
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from setinfo import (
    AgentSpec,
    ContextTooShort,
    CorpusTooSmall,
    Document,
    DocumentCollection,
    EstimatorConfig,
    MalformedLine,
    RunConfig,
    SynthGrammar,
    build_step_samples,
    default_grammar,
    heuristic_extract,
    load_triplets,
    load_verb_lexicon,
    sample_contexts,
    synth_corpus,
)
from setinfo import agents, corpus, ngrams
from setinfo.agents import resolve_pool
from setinfo.ngrams import GramIndex, ngram_set
from setinfo.trajectory import grammar_from_file

import scalar_draws
from conftest import collector_disabled, one_object_per_value


GRAM_SET = EstimatorConfig().gram_index()


def random_surfaces(tokens: list[str], k_max: int, per_step: int, seed: int) -> list[tuple[str, str, str]]:
    """The surfaces of a random agent's k_max steps over one context of ``tokens``."""
    samples = build_step_samples(
        "random", [tokens], k_max, per_step, np.random.default_rng(seed), len(tokens), GRAM_SET
    )
    return [(t.x.source, t.y.source, t.z.source) for s in samples for t in s.triplets]


class TestRandomSplitAgent:
    """The random agent's splitter, as a run's steps draw it."""

    def test_three_tokens_has_unique_split(self):
        assert random_surfaces(["a", "b", "c"], 2, 5, 0) == [("a", "b", "c")] * 10

    def test_too_short(self):
        with pytest.raises(ContextTooShort):
            build_step_samples("random", [["a", "b"]], 1, 1, np.random.default_rng(0), 2, GRAM_SET)

    def test_segments_nonempty_and_reconstruct(self):
        tokens = [f"t{i}" for i in range(10)]
        surfaces = random_surfaces(tokens, 2, 100, 5)
        assert len(surfaces) == 200
        for x, y, z in surfaces:
            assert x and y and z
            assert f"{x} {y} {z}" == " ".join(tokens)

    def test_gram_sets_match_surfaces(self):
        # The agent's cuts reach the step samples as the gram sets of exactly
        # those surfaces, each a split of one context of the corpus.
        docs = DocumentCollection([Document(id="d", text=" ".join(f"t{i}" for i in range(6)))])
        samples = build_step_samples("random", docs.token_lists, 2, 10, np.random.default_rng(1), 6, GRAM_SET)
        for t in (t for s in samples for t in s.triplets):
            assert f"{t.x.source} {t.y.source} {t.z.source}" == docs.documents[0].text
            assert t.x.grams == ngram_set(t.x.source, 1, 3, True).grams
            assert t.y.grams == ngram_set(t.y.source, 1, 3, True).grams
            assert t.z.grams == ngram_set(t.z.source, 1, 3, True).grams

    def test_determinism(self):
        tokens = [f"t{i}" for i in range(10)]
        assert random_surfaces(tokens, 4, 20, 9) == random_surfaces(tokens, 4, 20, 9)


class TestHeuristicExtract:
    LEX = frozenset({"is", "are", "was", "sat", "saw"})

    def test_basic_split(self):
        t = heuristic_extract("the cat is on the mat", self.LEX)
        assert t == ("the cat", "is", "on the mat")

    def test_leading_verb_rejected(self):
        assert heuristic_extract("is running fast", self.LEX) is None

    def test_trailing_verb_rejected(self):
        assert heuristic_extract("the cat is", self.LEX) is None

    def test_no_verb(self):
        assert heuristic_extract("no verbs here at all", self.LEX) is None

    def test_maximal_verb_run(self):
        t = heuristic_extract("the door was is stuck badly", self.LEX)
        assert t is not None
        assert t[1] == "was is"

    def test_reconstruction_invariant(self):
        sentences = [
            "the cat is on the mat.",
            "a dog saw the bird!",
            "old walls are damp here",
        ]
        for sentence in sentences:
            t = heuristic_extract(sentence, self.LEX)
            assert t is not None
            assert " ".join(t) == sentence

    def test_default_lexicon_loads(self):
        lexicon = load_verb_lexicon()
        assert len(lexicon) >= 200
        assert {"is", "are", "have", "said"} <= lexicon


class TestLoadTriplets:
    def test_valid_line(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"x": "the cat", "y": "sat on", "z": "the mat"}) + "\n")
        assert load_triplets(path) == [("the cat", "sat on", "the mat")]

    def test_empty_field_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            json.dumps({"x": "a", "y": "b", "z": "c"})
            + "\n"
            + json.dumps({"x": "a", "y": "", "z": "c"})
            + "\n"
        )
        with pytest.raises(MalformedLine) as err:
            load_triplets(path)
        assert err.value.line_no == 2
        assert str(err.value) == f"{path}: line 2: empty 'y' field"

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"x": "a", "z": "c"}) + "\n")
        with pytest.raises(MalformedLine) as err:
            load_triplets(path)
        assert str(err.value) == f"{path}: line 1: missing or non-string 'y' field"

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text("")
        assert load_triplets(path) == []

    def test_surfaces_normalized(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps({"x": "The  CAT", "y": "Sat", "z": "Down"}) + "\n")
        assert load_triplets(path) == [("the cat", "sat", "down")]


class TestSynthCorpus:
    def test_deterministic_for_fixed_seed(self):
        docs_a, gold_a = synth_corpus(300, np.random.default_rng(42))
        docs_b, gold_b = synth_corpus(300, np.random.default_rng(42))
        assert [d.text for d in docs_a] == [d.text for d in docs_b]
        assert gold_a == gold_b

    def test_gold_reconstructs_sentences(self):
        docs, gold = synth_corpus(120, np.random.default_rng(1), sentences_per_doc=30)
        sentences = []
        for doc in docs:
            # Documents pack 30 six-to-eight-token sentences back to back;
            # gold order matches generation order.
            sentences.append(doc.text)
        joined_docs = " ".join(sentences)
        reconstructed = " ".join(" ".join(t) for t in gold)
        assert reconstructed == joined_docs

    def test_gold_shares_one_gram_set_per_phrase(self):
        # Gold phrases repeat across sentences; the step samples drawn from the
        # gold pool hold one gram set per phrase, built with the given settings.
        gram_set = EstimatorConfig(n_max=4, include_space=False).gram_index()
        _, gold = synth_corpus(200, np.random.default_rng(8))
        samples = build_step_samples("gold_file", gold, 2, 200, np.random.default_rng(8), 10, gram_set)
        by_text = {}
        for t in (t for s in samples for t in s.triplets):
            for s in (t.x, t.y, t.z):
                assert by_text.setdefault(s.source, s) is s
                assert s == ngram_set(s.source, 1, 4, False)
        assert len(by_text) < 3 * 2 * 200

    @pytest.mark.parametrize("per_doc", [1, 7, 50, 1000])
    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937])
    def test_documents_are_the_sentences_joined_then_split(self, per_doc, bitgen):
        # MT19937 takes the scalar draws (_scalar_triples).  Either way each
        # text is the space-join of its document's triples, and the gold list
        # holds one tuple object per distinct triple.
        docs, gold = synth_corpus(600, np.random.Generator(bitgen(6)), sentences_per_doc=per_doc)
        texts = joined_sentences(gold, per_doc)
        assert [d.text for d in docs] == texts
        assert docs.token_lists == [text.split() for text in texts]
        assert len(set(gold)) < len(gold)  # triples repeat
        assert one_object_per_value(gold)

    def test_grammar_file_documents_are_the_sentences_joined_then_split(self, tmp_path):
        # Phrases share words ("the", "red", "drone") across and within pools.
        # The file's "a red  drone" is normalized, as a gold surface is; a
        # grammar made in code keeps its run of spaces, which the text keeps
        # and the split drops.  Object phrases read apart from each pool line
        # are one phrase by value.
        from_file = shared_word_grammar(tmp_path)
        assert "a red drone" in from_file.subjects
        for grammar in (from_file, replace(from_file, subjects=("a red  drone", *from_file.subjects))):
            docs, gold = synth_corpus(300, np.random.default_rng(2), grammar, 20)
            assert one_object_per_value(gold)
            texts = joined_sentences(gold, 20)
            assert [d.text for d in docs] == texts
            assert docs.token_lists == [text.split() for text in texts]
        assert any("a red  drone" in triple for triple in gold)

    @pytest.mark.parametrize("from_file", [False, True])
    def test_tokens_are_one_object_per_distinct_token(self, tmp_path, from_file):
        grammar = shared_word_grammar(tmp_path) if from_file else None
        docs, _ = synth_corpus(2000, np.random.default_rng(3), grammar)
        tokens = list(chain.from_iterable(docs.token_lists))
        assert 10 * len(set(tokens)) < len(tokens)  # tokens repeat
        assert one_object_per_value(tokens)

    def test_corpus_retains_one_reference_per_token(self):
        # Measured 1.54 MB retained: one 8-byte reference per token (84000
        # tokens, 0.69 MB), the 240 texts (0.51 MB), the gold list (0.11 MB)
        # and its 2816 distinct tuples (at most 0.18 MB).  A tuple per
        # sentence adds about 0.6 MB, and a new str per token about 4 MB.
        # The peak, 1.94 MB, comes while the batch draw's arrays are alive.
        # The generator is made, and the free lists emptied, before tracing
        # starts: a traced first import of ``numpy.random`` read 2.26 MB
        # retained and 2.66 MB peak, and a burst of freed tuples before the
        # call hid some of the gold tuples (1.40 MB), so the figures
        # depended on the tests run before.
        rng = np.random.default_rng(5)
        gc.collect()
        tracemalloc.start()
        try:
            docs, gold = synth_corpus(12000, rng)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(map(len, docs.token_lists)) == 7 * 12000
        assert retained < 1_800_000
        assert peak < 2_600_000

    def test_sentences_per_doc_default_matches_run_config(self):
        default = inspect.signature(synth_corpus).parameters["sentences_per_doc"].default
        assert default == RunConfig().synthetic_sentences_per_doc

    def test_pool_sizes_meet_minimums(self):
        g = default_grammar()
        assert len(g.subjects) >= 20
        assert len(g.verbs) >= 10
        assert len(g.objects) >= 20
        assert all(len(objs) >= 1 for objs in g.preferred.values())

    def test_full_preference_forces_preferred_objects(self):
        grammar = default_grammar(p_pref=1.0)
        _, gold = synth_corpus(400, np.random.default_rng(3), grammar)
        for _, verb, obj in gold:
            assert obj in grammar.preferred[verb]

    def test_marginal_object_distribution_roughly_uniform(self):
        grammar = default_grammar(p_pref=0.8)
        _, gold = synth_corpus(8000, np.random.default_rng(4), grammar)
        counts = {}
        for _, _, obj in gold:
            counts[obj] = counts.get(obj, 0) + 1
        expected = len(gold) / len(grammar.objects)
        assert all(abs(c - expected) < 6 * np.sqrt(expected) for c in counts.values())


def joined_sentences(gold: list[tuple[str, str, str]], per_doc: int) -> list[str]:
    """Each document's text: its sentences, each a triple's phrases, joined by spaces."""
    sentences = [" ".join(triple) for triple in gold]
    return [" ".join(sentences[i : i + per_doc]) for i in range(0, len(sentences), per_doc)]


def shared_word_grammar(tmp_path) -> SynthGrammar:
    path = tmp_path / "grammar.cfg"
    path.write_text(
        "grammar.subjects = the red robot | a red  drone | the drone\n"
        "grammar.verbs = lifts | moves\n"
        "grammar.objects = the red crate | a drone | the crate\n"
        "grammar.preferred.lifts = the red crate | a drone\n"
        "grammar.preferred.moves = the crate | the red robot\n",
        encoding="utf-8",
    )
    return grammar_from_file(path)


def bit_state(rng: np.random.Generator) -> str:
    """The bit generator's state, comparable for PCG64 and MT19937 alike."""
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


@st.composite
def grammars(draw) -> SynthGrammar:
    """Custom pools of 2-30 phrases, with at most one pool cut to one phrase."""
    size = st.integers(2, 30)
    verbs = [f"v{i}" for i in range(draw(size))]
    pools = {
        "subjects": [f"s{i}" for i in range(draw(size))],
        "verbs": verbs,
        "objects": [f"o{i}" for i in range(draw(size))],
        **{v: [f"{v}-p{j}" for j in range(draw(size))] for v in verbs},
    }
    one = draw(st.none() | st.sampled_from(sorted(pools)))
    if one is not None:
        pools[one] = pools[one][:1]
    return SynthGrammar(
        subjects=tuple(pools["subjects"]),
        verbs=tuple(pools["verbs"]),
        objects=tuple(pools["objects"]),
        preferred={v: tuple(pools[v]) for v in pools["verbs"]},
        p_pref=draw(st.sampled_from([0.0, 0.37, 1.0])),
    )


class TestBatchDraw:
    """``synth_corpus`` draws in one batch exactly what the scalar loop draws."""

    @settings(deadline=None, max_examples=150)
    @given(
        n=st.integers(0, 300),
        per_doc=st.integers(1, 60),
        grammar=grammars() | st.sampled_from([0.0, 0.37, 1.0]).map(default_grammar),
        seed=st.integers(0, 2**64 - 1),
        half_used=st.booleans(),
        mt=st.booleans(),
    )
    def test_equals_scalar_loop(self, n, per_doc, grammar, seed, half_used, mt):
        def generator() -> np.random.Generator:
            rng = np.random.Generator(np.random.MT19937(seed) if mt else np.random.PCG64(seed))
            if half_used:
                rng.integers(5)  # leaves half a word in PCG64's 32-bit buffer
            return rng

        batch_rng, scalar_rng = generator(), generator()
        docs, gold = synth_corpus(n, batch_rng, grammar, sentences_per_doc=per_doc)
        want = agents._scalar_triples(n, scalar_rng, grammar)
        assert gold == want
        assert [(d.id, d.text) for d in docs] == [
            (f"synthetic-{i // per_doc:04d}", " ".join(" ".join(t) for t in want[i : i + per_doc]))
            for i in range(0, n, per_doc)
        ]
        assert bit_state(batch_rng) == bit_state(scalar_rng)
        # Only another bit generator or a one-phrase pool takes the scalar loop.
        pools = [grammar.subjects, grammar.verbs, grammar.objects, *grammar.preferred.values()]
        batchable = not mt and min(map(len, pools)) > 1
        probe = generator()
        assert (agents._batch_triples(n, probe, grammar) == want) == batchable
        assert bit_state(probe) == bit_state(scalar_rng if batchable else generator())

    def test_bounded_decoding_matches_integers_and_flags_rejections(self):
        # n = 3 * 2**30 rejects u with u % 4 == 0: the low 32 bits of u * n are
        # (3u % 4) * 2**30, below the threshold (2**32 - n) % n = 2**30.
        n = 3 * 2**30
        words = np.random.default_rng(7).bit_generator.random_raw(501)
        u = np.empty(1000, dtype=np.uint64)
        u[0::2] = words[:500] & np.uint64(0xFFFFFFFF)  # the order Generator.integers reads halves in
        u[1::2] = words[:500] >> np.uint64(32)
        values, rejected = corpus._lemire(u, n)
        assert 0.2 < rejected.mean() < 0.3
        assert np.array_equal(rejected, u % np.uint64(4) == 0)
        used = np.flatnonzero(~rejected)[-1] + 1  # draws up to the last accepted one
        rng = np.random.default_rng(7)
        accepted = values[:used][~rejected[:used]].tolist()
        assert [int(rng.integers(n)) for _ in accepted] == accepted
        # The generator read exactly the draws decoded, rejected ones included.
        assert rng.bit_generator.state["has_uint32"] == used % 2
        assert rng.bit_generator.random_raw() == words[(used + 1) // 2]

    @pytest.mark.parametrize("flagged", ["subject", "verb", "object"])
    def test_rejected_draw_restores_state_and_runs_scalar_loop(self, monkeypatch, flagged):
        lemire, scalar = agents._lemire, agents._scalar_triples
        decoded, entered = [], []

        def flag_one_draw(u, n):  # subjects, verbs, then objects are decoded
            values, rejected = lemire(u, n)
            decoded.append(n)
            if len(decoded) == ["subject", "verb", "object"].index(flagged) + 1:
                rejected[-1] = True
            return values, rejected

        def spy(n_sentences, rng, grammar):
            entered.append(bit_state(rng))
            return scalar(n_sentences, rng, grammar)

        monkeypatch.setattr(agents, "_lemire", flag_one_draw)
        monkeypatch.setattr(agents, "_scalar_triples", spy)
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        _, gold = synth_corpus(500, rng)
        assert entered == [bit_state(np.random.default_rng(9))]
        assert gold == scalar(500, reference, default_grammar())
        assert bit_state(rng) == bit_state(reference)


def token_corpus(lengths: list[int]) -> DocumentCollection:
    """Documents of the given token counts, every token naming its document and position."""
    return DocumentCollection(
        [Document(id=f"d{d}", text=" ".join(f"t{d}.{i}" for i in range(n))) for d, n in enumerate(lengths)]
    )


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def seeded(bitgen, seed: int, half_used: bool) -> np.random.Generator:
    rng = np.random.Generator(bitgen(seed))
    if half_used:
        rng.integers(5)  # leaves half a word in a 64-bit generator's 32-bit buffer
    return rng


def lemire_spy(flagged: str | None, decoded: list[int]):
    """``_lemire`` that records how many draws each call decodes and, on the
    call for the ``flagged`` draws (documents, then offsets), reports the
    first context's draw as rejected and, where its range has two values or
    more, changes its value to another in range, so a batch that used the
    flagged value would differ from the loop."""
    lemire = corpus._lemire

    def spy(u, n):
        values, rejected = lemire(u, n)
        decoded.append(len(u))
        if len(decoded) == [None, "document", "offset"].index(flagged) and len(u):
            rejected[0] = True
            if np.broadcast_to(n, len(u))[0] > 1:
                values[0] = values[0] == 0  # 0 <-> nonzero
        return values, rejected

    return spy


class CountingGenerator:
    """A generator's ``integers`` and ``bit_generator``, counting the draws taken one at a time."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.bit_generator = rng.bit_generator
        self.rng = rng
        self.scalar_calls = 0

    def integers(self, *args, **kwargs):
        self.scalar_calls += kwargs.get("size") is None
        return self.rng.integers(*args, **kwargs)


class TestBatchStep:
    """A random step's draws equal the scalar ones of ``scalar_draws``."""

    @settings(deadline=None, max_examples=150)
    @given(
        lengths=st.lists(st.integers(1, 30), min_size=1, max_size=8),
        length=st.integers(3, 12),
        per_step=st.integers(0, 120),
        seed=st.integers(0, 2**64 - 1),
        half_used=st.booleans(),
        bitgen=st.sampled_from(BIT_GENERATORS),
        flagged=st.sampled_from([None, "document", "offset"]),
    )
    @example([12], 10, 40, 1, False, np.random.PCG64, None)  # one eligible document
    @example([10, 14, 30], 10, 40, 2, True, np.random.PCG64, None)  # one of exactly L
    @example([10], 10, 40, 8, True, np.random.MT19937, None)  # one of exactly L, and no other
    @example([10, 14, 30], 10, 40, 9, True, np.random.SFC64, "offset")  # one of exactly L, a rejected draw
    @example([9, 14, 30], 3, 40, 3, True, np.random.SFC64, "offset")  # L = 3: Floyd draws nothing first
    @example([9, 14, 30], 4, 1, 4, True, np.random.Philox, "document")
    @example([9, 14, 30], 10, 100, 5, False, np.random.MT19937, "offset")
    @example([9, 14, 30], 4, 0, 6, True, np.random.PCG64, None)
    @example([9, 14, 30], 8, 120, 7, True, np.random.PCG64, "document")
    def test_equals_scalar_loop(self, lengths, length, per_step, seed, half_used, bitgen, flagged):
        assume(max(lengths) >= length)
        docs = token_corpus(lengths)
        rng, reference = seeded(bitgen, seed, half_used), seeded(bitgen, seed, half_used)
        want = scalar_draws.sample_contexts(docs.token_lists, length, per_step, reference)
        decoded = []
        with mock.patch.object(corpus, "_lemire", lemire_spy(flagged, decoded)):
            got = sample_contexts(docs.token_lists, length, per_step, rng)
        assert list(map(tuple, got)) == want
        assert bit_state(rng) == bit_state(reference)
        # Every step is decoded in one batch, ranges of one value included:
        # the 2n values a step can take as documents, then its n offsets.
        assert decoded == [2 * per_step, per_step]

        # The contexts, their order, the cuts and the surfaces of a whole
        # build equal the loop's.
        def surfaces(samples):
            return [[(t.x.source, t.y.source, t.z.source) for t in s.triplets] for s in samples]

        built = build_step_samples(
            "random", docs.token_lists, 3, per_step, seeded(bitgen, seed, half_used), length, GRAM_SET
        )
        reference = [
            scalar_draws.random_step(docs.token_lists, length, per_step, step_rng)
            for step_rng in seeded(bitgen, seed, half_used).spawn(3)
        ]
        assert surfaces(built) == reference

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(0, 400),
        seed=st.integers(0, 2**64 - 1),
        half_used=st.booleans(),
        bitgen=st.sampled_from(BIT_GENERATORS),
    )
    @example(0, 1, True, np.random.PCG64)
    @example(1, 2, True, np.random.PCG64)
    @example(2, 3, False, np.random.MT19937)
    @example(2, 4, True, np.random.Philox)
    @example(300, 5, True, np.random.SFC64)
    def test_permutation_equals_numpys(self, n, seed, half_used, bitgen):
        rng, reference = seeded(bitgen, seed, half_used), seeded(bitgen, seed, half_used)
        assert corpus._permutation(n, rng) == reference.permutation(n).tolist()
        assert bit_state(rng) == bit_state(reference)

    @pytest.mark.parametrize("flagged", ["document", "offset"])
    def test_rejected_draw_restores_state_and_runs_scalar_loop(self, monkeypatch, flagged):
        docs = TestBuildStepSamples().make_corpus()
        decoded = []
        monkeypatch.setattr(corpus, "_lemire", lemire_spy(flagged, decoded))
        (sample,) = build_step_samples("random", docs.token_lists, 1, 50, np.random.default_rng(9), 10, GRAM_SET)
        assert decoded == [100, 50]
        (step_rng,) = np.random.default_rng(9).spawn(1)
        want = scalar_draws.random_step(docs.token_lists, 10, 50, step_rng)
        assert [(t.x.source, t.y.source, t.z.source) for t in sample.triplets] == want

    @pytest.mark.parametrize("lengths", [[40], [10, 40, 60]], ids=["one-document", "one-of-exactly-L"])
    def test_one_value_ranges_take_no_draw_one_at_a_time(self, lengths):
        # A range of one value, for which numpy takes no draw, keeps the step
        # on the batch decode: no document or offset is drawn alone.
        docs = token_corpus(lengths)
        rng, reference = CountingGenerator(np.random.default_rng(3)), np.random.default_rng(3)
        got = sample_contexts(docs.token_lists, 10, 100, rng)
        want = scalar_draws.sample_contexts(docs.token_lists, 10, 100, reference)
        assert list(map(tuple, got)) == want
        assert bit_state(rng.rng) == bit_state(reference)
        assert rng.scalar_calls == 0


class TestBuildStepSamples:
    def make_corpus(self) -> DocumentCollection:
        docs, _ = synth_corpus(400, np.random.default_rng(11))
        return docs

    def test_random_agent_counts(self):
        samples = list(build_step_samples(
            "random", self.make_corpus().token_lists, k_max=5, per_step=7,
            rng=np.random.default_rng(0), context_length=10, gram_set=GRAM_SET,
        ))
        assert len(samples) == 5
        assert all(len(s.triplets) == 7 for s in samples)
        assert [s.k for s in samples] == [1, 2, 3, 4, 5]

    def test_singleton_steps(self):
        samples = build_step_samples(
            "random", self.make_corpus().token_lists, k_max=3, per_step=1,
            rng=np.random.default_rng(0), context_length=10, gram_set=GRAM_SET,
        )
        assert all(len(s.triplets) == 1 for s in samples)

    def test_gold_pool_sampled_with_replacement(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        with open(path, "w") as fh:
            for i in range(50):
                fh.write(json.dumps({"x": f"s{i}", "y": f"v{i}", "z": f"o{i}"}) + "\n")
        pool = load_triplets(path)
        samples = list(build_step_samples("gold_file", pool, 4, 30, np.random.default_rng(8), 10, GRAM_SET))
        assert all(len(s.triplets) == 30 for s in samples)
        # 30 draws from 50 distinct triples repeat one only when drawn with
        # replacement; without, every step would hold 30 distinct triples.
        for s in samples:
            assert len({t.x.source for t in s.triplets}) < 30

    def test_gold_determinism(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        with open(path, "w") as fh:
            for i in range(10):
                fh.write(json.dumps({"x": f"s{i}", "y": f"v{i}", "z": f"o{i}"}) + "\n")
        pool = load_triplets(path)
        a = build_step_samples("gold_file", pool, 3, 20, np.random.default_rng(5), 10, GRAM_SET)
        b = build_step_samples("gold_file", pool, 3, 20, np.random.default_rng(5), 10, GRAM_SET)
        assert list(a) == list(b)

    def test_extractor_mines_corpus_sentences(self):
        docs = DocumentCollection(
            [
                Document(id="d0", text="the cat is on the mat. a dog was here."),
                Document(id="d1", text="nothing verbal."),
            ]
        )
        pool = resolve_pool(AgentSpec(kind="extractor"), docs)
        samples = build_step_samples("extractor", pool, 2, 10, np.random.default_rng(0), 10, GRAM_SET)
        surfaces = {(t.x.source, t.y.source, t.z.source) for s in samples for t in s.triplets}
        assert ("the cat", "is", "on the mat.") in surfaces

    def test_one_gram_set_per_distinct_text(self):
        # Each distinct segment text is built once, by the given index, in one
        # call per step, and every triplet holding it shares it: within its
        # step for a random agent, whose texts never stop being new, and
        # across the steps for a pool agent, whose texts are the pool's.
        class RecordingIndex(GramIndex):
            """Records the texts of every ``segments`` call."""

            def segments(self, texts):
                calls.append(list(texts))
                return super().segments(texts)

        gram_set = RecordingIndex(*EstimatorConfig(n_max=4, include_space=False).gram_index().settings)
        docs, gold = synth_corpus(400, np.random.default_rng(11))
        mined = resolve_pool(AgentSpec(kind="extractor"), docs)
        for kind, source in [("random", docs.token_lists), ("extractor", mined), ("gold_file", gold)]:
            calls = []
            steps = [
                [s for t in sample.triplets for s in (t.x, t.y, t.z)]
                for sample in build_step_samples(kind, source, 3, 40, np.random.default_rng(6), 10, gram_set)
            ]
            assert len(calls) == len(steps)
            scopes = steps if kind == "random" else [[s for sets in steps for s in sets]]
            built = calls if kind == "random" else [[text for texts in calls for text in texts]]
            for sets, texts in zip(scopes, built, strict=True):
                assert len(texts) == len(set(texts))
                assert set(texts) == {s.source for s in sets}
                shared = {}
                for s in sets:
                    assert s == ngram_set(s.source, 1, 4, False) and s.index is gram_set
                    assert shared.setdefault(s.source, s) is s
            if kind == "random":
                assert set(calls[0]) & set(calls[1])  # a text that recurs is built again

    def test_a_pool_agent_keeps_the_sets_of_drawn_texts_while_its_generator_runs(self):
        # A pool step's sample is freed once dropped, but the sets of the
        # texts it drew are kept, and a later step that draws one of those
        # texts gets the same set, until the generator is dropped.
        pool = [(f"x{i}", f"y {i}", f"z{i} a") for i in range(8)]
        with collector_disabled():
            samples = build_step_samples("gold_file", pool, 6, 3, np.random.default_rng(0), 10, GRAM_SET)
            first = next(samples)
            drawn = {s.source for t in first.triplets for s in (t.x, t.y, t.z)}
            refs = [weakref.ref(first), weakref.ref(first.triplets[0])]
            ids = weakref.ref(first.triplets[0].x.ids.base)  # the array every set of the first step slices
            del first
            assert [ref() is None for ref in refs] == [True, True]
            kept = []
            for _ in range(3):
                sets = [s for t in next(samples).triplets for s in (t.x, t.y, t.z)]
                kept += [(s.source in drawn, s.ids.base is ids()) for s in sets]
            del sets
            assert set(kept) == {(True, True), (False, False)}
            assert ids() is not None
            del samples
            assert ids() is None

    @pytest.mark.parametrize("include_space", [True, False])
    def test_pool_texts_with_runs_of_spaces_and_tabs_equal_ngram_set(self, include_space):
        # A pool is read as given: its texts may hold doubled, leading and
        # trailing spaces, which cut empty pieces, and tabs inside a piece.
        pool = [("the  lab robot", "lifts\tup", " a b "), ("a\tb", "ab    c", "x  ")]
        cfg = EstimatorConfig(n_max=4, include_space=include_space)
        index = cfg.gram_index()
        samples = build_step_samples("gold_file", pool, 3, 20, np.random.default_rng(2), 10, index)
        sets = {s.source: s for sample in samples for t in sample.triplets for s in (t.x, t.y, t.z)}
        assert sets.keys() == set(chain.from_iterable(pool))
        for text, s in sets.items():
            want = ngram_set(text, cfg.n_min, cfg.n_max, include_space)
            assert s == want and s.index is index
            assert set(s.ids.tolist()) == {index.vocab[g] for g in want.grams}

    def test_random_context_shorter_than_three_rejected(self):
        # Two tokens cannot be cut into three nonempty segments.
        with pytest.raises(ContextTooShort):
            build_step_samples("random", self.make_corpus().token_lists, 1, 5, np.random.default_rng(0), 2, GRAM_SET)

    @pytest.mark.parametrize(
        "kind,source,length,error",
        [("random", [["a", "b", "c"]], 4, CorpusTooSmall), ("gold_file", [], 10, ValueError)],
        ids=["corpus-too-small", "empty-pool"],
    )
    def test_bad_source_raises_at_the_call(self, kind, source, length, error):
        # Before the first sample is asked for, as a context too short does.
        with pytest.raises(error):
            build_step_samples(kind, source, 1, 5, np.random.default_rng(0), length, GRAM_SET)

    def test_bad_agent_kind_rejected(self):
        with pytest.raises(ValueError):
            AgentSpec(kind="oracle")


@pytest.mark.parametrize("module", [ngrams, agents], ids=lambda m: m.__name__)
def test_gram_settings_have_no_defaults(module):
    # EstimatorConfig and RunConfig hold the only copy of these defaults; a
    # default here could build gram sets that disagree with the run's.
    settings = {"n_min", "n_max", "include_space", "gram_set", "context_length"}
    defaulted = [
        f"{name}({param.name})"
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_")
        for param in inspect.signature(fn).parameters.values()
        if param.name in settings and param.default is not inspect.Parameter.empty
    ]
    assert defaulted == []
