from __future__ import annotations

import tracemalloc
import weakref
from dataclasses import replace
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setinfo import (
    CSV_HEADER,
    MI_SERIES,
    AgentSpec,
    ConfigInvalid,
    Document,
    DocumentCollection,
    EstimatorConfig,
    MalformedLine,
    RunConfig,
    compute_mi_record,
    ngram_set,
    read_csv,
    rolling_mean,
    run_simulation,
    write_csv,
    write_manifest,
    write_triplets,
)
from setinfo import density, trajectory
from setinfo.agents import build_step_samples
from setinfo.reward import SCHEMES, reward
from setinfo.trajectory import CONFIG_SCHEMA, _fmt, resolve_inputs

from conftest import collector_disabled


def rebuilt_samples(cfg: RunConfig, gram_set) -> dict:
    """Each agent's step samples of a run, rebuilt from its inputs and master seed."""
    docs, pools = resolve_inputs(cfg)
    _, *agent_rngs = np.random.default_rng(cfg.seed).spawn(1 + len(cfg.agents))
    return {
        spec.name: build_step_samples(
            spec.kind, pools.get(spec.name, docs.token_lists),
            cfg.k_max, cfg.per_step, agent_rng, cfg.context_length, gram_set,
        )
        for spec, agent_rng in zip(cfg.agents, agent_rngs)
    }


def yielding(record):
    """``build_step_samples`` that calls ``record(sample)`` on each sample before yielding it."""

    def build(*args, **kw):
        for sample in build_step_samples(*args, **kw):
            record(sample)
            yield sample

    return build


def small_config(**overrides) -> RunConfig:
    defaults = dict(
        corpus_path="synthetic",
        synthetic_sentences=400,
        k_max=6,
        per_step=20,
        window=3,
        seed=7,
        agents=(
            AgentSpec(kind="random"),
            AgentSpec(kind="gold_file", name="structured"),
        ),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestRollingMean:
    def test_window_two(self):
        assert rolling_mean([1, 2, 3, 4], 2) == pytest.approx([1.5, 2.5, 3.5])

    def test_window_one_is_identity(self):
        series = [3.0, 1.0, 4.0, 1.5]
        assert rolling_mean(series, 1) == pytest.approx(series)

    def test_constant_series(self):
        assert rolling_mean([5, 5, 5], 3) == pytest.approx([5.0])

    def test_window_longer_than_series_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            out = rolling_mean([1.0, 2.0], 10)
        assert out == pytest.approx([1.5])

    def test_empty_series(self):
        assert rolling_mean([], 4) == []

    def test_bad_window(self):
        with pytest.raises(ValueError):
            rolling_mean([1.0], 0)

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=30),
        st.integers(1, 10),
        st.floats(-3, 3),
        st.floats(-5, 5),
    )
    def test_is_fmean_to_the_bit(self, series, window, a, b):
        # Each mean is fsum / n, which is what statistics.fmean computes.
        window = min(window, len(series))
        series = [a * x + b for x in series]
        assert rolling_mean(series, window) == [
            fmean(series[i : i + window]) for i in range(len(series) - window + 1)
        ]

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=30),
        st.integers(1, 10),
        st.floats(-3, 3),
        st.floats(-5, 5),
    )
    def test_commutes_with_affine_maps(self, series, window, a, b):
        window = min(window, len(series))
        direct = rolling_mean([a * x + b for x in series], window)
        mapped = [a * r + b for r in rolling_mean(series, window)]
        assert direct == pytest.approx(mapped, abs=1e-12)


class TestRunConfig:
    def test_defaults_mirror_experiment_scale(self):
        cfg = RunConfig()
        assert cfg.k_max == 120
        assert cfg.per_step == 100
        assert cfg.window == 50
        assert cfg.context_length == 10
        assert cfg.estimator.bandwidth == 5.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k_max": 0},
            {"per_step": 0},
            {"window": 0},
            {"agents": ()},
            {"synthetic_sentences": 0},
            {"synthetic_sentences_per_doc": 0},
            {"estimator.n_min": 0},
            {"estimator.n_max": 0},
            {"agents": (AgentSpec(kind="random"), AgentSpec(kind="random"))},
            {"synthetic_p_pref": 1.5},
            {"synthetic_p_pref": -0.1},
            {"synthetic_p_pref": float("nan")},
            {"seed": -1},
            {"groups": ()},
            {"groups": ("a",)},
            {"strip_headers": True},
        ],
    )
    def test_invalid_rejected(self, overrides):
        ((attr, value),) = overrides.items()
        key = {attr: key for key, attr, *_ in CONFIG_SCHEMA}[attr]
        with pytest.raises(ConfigInvalid) as info:
            if attr.startswith("estimator."):  # checked when the config is read
                RunConfig.from_dict({key: str(value)})
            else:
                small_config(**overrides).validate()
        assert str(info.value).startswith(key)

    def test_from_dict_round_trip(self):
        values = {
            "corpus.path": "synthetic",
            "context.length": "10",
            "context.per_step": "50",
            "run.k_max": "20",
            "run.window": "5",
            "run.seed": "9",
            "estimator.entropy_mode": "raw",
            "estimator.joint_mode": "concat",
            "agents": "random, structured",
            "agent.structured.kind": "gold_file",
        }
        cfg = RunConfig.from_dict(values)
        assert cfg.per_step == 50
        assert cfg.estimator.entropy_mode == "raw"
        assert cfg.estimator.joint_mode == "concat"
        assert cfg.agents[1].kind == "gold_file"
        assert cfg.agents[1].name == "structured"

    def test_unknown_agent_kind_is_config_error(self):
        with pytest.raises(ConfigInvalid):
            RunConfig.from_dict({"agents": "oracle"})

    @pytest.mark.parametrize("values", [{}, {"agents": "random, structured"}])
    def test_from_dict_defaults_are_the_dataclass_defaults(self, values):
        assert RunConfig.from_dict(values) == RunConfig()

    def test_flat_dict_round_trip_with_lexicon(self):
        cfg = RunConfig(
            corpus_path="corpus.jsonl",
            agents=(
                AgentSpec(kind="random"),
                AgentSpec(kind="extractor", name="miner", lexicon_path="verbs.txt"),
            )
        )
        assert cfg.to_flat_dict()["agent.miner.lexicon"] == "verbs.txt"
        assert RunConfig.from_dict(cfg.to_flat_dict()) == cfg

    @pytest.mark.parametrize(
        "values,named",
        [
            ({"run.kmax": "5"}, "run.kmax"),
            ({"agent.ghost.kind": "random"}, "agent.ghost.kind"),
            ({"agents": "random", "agent.structured.kind": "gold_file"}, "agent.structured.kind"),
            ({"estimator.entropy_mode": "bits"}, r"^estimator\.entropy_mode"),
            ({"estimator.joint_mode": "sum"}, r"^estimator\.joint_mode"),
            ({"estimator.bandwidth": "0"}, r"^estimator\.bandwidth"),
            ({"agent.structured.kind": "oracle"}, r"^agent\.structured\.kind"),
            ({"run.workers": "0"}, r"^run\.workers"),
            ({"run.workers": "4"}, r"^run\.workers"),
            ({"estimator.bandwidth": "1e160"}, r"^estimator\.bandwidth"),
            ({"estimator.bandwidth": "1e-170"}, r"^estimator\.bandwidth"),
        ],
    )
    def test_from_dict_rejects_naming_the_cause(self, values, named):
        with pytest.raises(ConfigInvalid, match=named):
            RunConfig.from_dict(values)

    def test_run_workers_is_accepted_as_one_and_not_hashed(self):
        values = {"run.seed": "3", "estimator.joint_mode": "concat"}
        cfg = RunConfig.from_dict({**values, "run.workers": "1"})
        assert cfg == RunConfig.from_dict(values)
        assert cfg.config_hash() == RunConfig.from_dict(values).config_hash()

    @pytest.mark.parametrize(
        "spec,key",
        [
            (AgentSpec(kind="random", path="nothing.jsonl"), "agent.random.path"),
            (AgentSpec(kind="extractor", name="miner", path="gold.jsonl"), "agent.miner.path"),
            (AgentSpec(kind="random", lexicon_path="verbs.txt"), "agent.random.lexicon"),
            (AgentSpec(kind="gold_file", name="gold", lexicon_path="verbs.txt"), "agent.gold.lexicon"),
        ],
    )
    def test_agent_key_its_kind_never_reads_rejected(self, spec, key):
        with pytest.raises(ConfigInvalid) as info:
            small_config(corpus_path="corpus.jsonl", agents=(spec,)).validate()
        assert str(info.value).startswith(key)
        flat = {"corpus.path": "corpus.jsonl", "agents": spec.name, f"agent.{spec.name}.kind": spec.kind}
        flat[key] = "x"
        with pytest.raises(ConfigInvalid, match=f"^{key}"):
            RunConfig.from_dict(flat)

    def test_extractor_on_synthetic_corpus_rejected(self):
        with pytest.raises(ConfigInvalid, match=r"^agent\.miner\.kind"):
            small_config(agents=(AgentSpec(kind="extractor", name="miner"),)).validate()
        small_config(corpus_path="corpus.jsonl", agents=(AgentSpec(kind="extractor"),)).validate()

    def test_gold_file_without_path_off_synthetic_corpus_rejected(self):
        # Only the synthetic corpus supplies a gold pool to draw from.
        gold = AgentSpec(kind="gold_file", name="structured")
        with pytest.raises(ConfigInvalid, match=r"^agent\.structured\.path"):
            small_config(corpus_path="corpus.jsonl", agents=(gold,)).validate()
        small_config(agents=(gold,)).validate()
        small_config(corpus_path="corpus.jsonl", agents=(replace(gold, path="g.jsonl"),)).validate()

    def test_config_hash_stable_and_sensitive(self):
        a = small_config()
        b = small_config()
        c = small_config(seed=8)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

        def with_lexicon(path):
            return small_config(
                agents=(AgentSpec(kind="extractor", name="miner", lexicon_path=path),)
            ).config_hash()

        assert len({with_lexicon(None), with_lexicon("a.txt"), with_lexicon("b.txt")}) == 3


class TestRunSimulation:
    def test_record_counts_and_labels(self):
        results = run_simulation(small_config())
        assert set(results) == {"random", "structured"}
        for result in results.values():
            assert len(result.records) == 6
            assert all(rec.sample_size == 20 for rec in result.records)
            assert [rec.k for rec in result.records] == [1, 2, 3, 4, 5, 6]
            assert len(result.rolling["i_xy"]) == 6 - 3 + 1
        assert results["structured"].spec.kind == "gold_file"

    def test_rewards_cover_both_schemes(self, tmp_path):
        # Every row's reward columns are the reward of that step's record.
        header = CSV_HEADER.split(",")
        columns = [header.index(f"reward_{scheme}") for scheme in SCHEMES]
        results = run_simulation(small_config())
        for name, result in results.items():
            write_csv(result, tmp_path / f"{name}.csv")
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
            assert len(rows) == len(result.records)
            for row, rec in zip(rows, result.records):
                assert [row[i] for i in columns] == [_fmt(reward(rec, s)) for s in SCHEMES]

    def test_metadata_fields(self):
        cfg = small_config()
        results = run_simulation(cfg)
        result = results["structured"]
        assert result.cfg == cfg and result.cfg.seed == 7 and result.cfg.k_max == 6
        assert result.spec == cfg.agents[1]
        assert 0 <= result.violations <= result.comparisons
        assert result.comparisons == 6 * 20 * 3 * 2
        assert result.violation_fraction == result.violations / result.comparisons
        assert 0 < result.build_time_s < result.wall_time_s

    def test_deterministic_across_runs(self):
        a = run_simulation(small_config())
        b = run_simulation(small_config())
        for name in a:
            assert a[name].records == b[name].records

    def test_a_finished_run_holds_no_index(self, monkeypatch):
        # Once the run returns, nothing, density's record-to-monitor hand-off included, keeps its
        # index alive, nor so the scratch the steps kept on it; nothing the
        # index holds points back to it, so no cycle waits for the collector.
        indexes = []
        monkeypatch.setattr(
            trajectory,
            "build_step_samples",
            lambda *args, **kw: indexes.append(weakref.ref(kw["gram_set"])) or build_step_samples(*args, **kw),
        )
        with collector_disabled():
            run_simulation(small_config(k_max=2, window=2))
            alive = [ref() is not None for ref in indexes]
        assert alive == [False, False]

    def test_an_agents_samples_are_dead_before_the_next_agent_builds(self, monkeypatch):
        # The random agent's samples are dropped once its steps are measured,
        # so they never coexist with the gold agent's.
        built, alive_at_entry = [], []

        def recording(*args, **kw):
            alive_at_entry.append([ref() is not None for ref in built])
            return yielding(lambda sample: built.append(weakref.ref(sample)))(*args, **kw)

        monkeypatch.setattr(trajectory, "build_step_samples", recording)
        with collector_disabled():
            run_simulation(small_config(k_max=2, window=2))
        assert alive_at_entry == [[], [False, False]]

    def test_a_step_is_dead_once_the_next_two_are_built(self, monkeypatch):
        # Each sample is measured as it is built and dropped before the next
        # is built, so when step k + 2 is built neither step k nor the array
        # its gram ids were sliced from (a random step's own) is alive.
        built = []

        def record(sample):
            alive = [(ref() is not None, ids() is not None) for ref, ids in built[:-1]]
            built.append((weakref.ref(sample), weakref.ref(sample.triplets[0].x.ids.base)))
            seen.append(alive)

        seen = []
        monkeypatch.setattr(trajectory, "build_step_samples", yielding(record))
        with collector_disabled():
            run_simulation(small_config(k_max=5, window=2, agents=(AgentSpec(kind="random"),)))
        assert seen == [[(False, False)] * max(k - 1, 0) for k in range(5)]

    def test_steps_memory_does_not_grow_with_k_max(self, monkeypatch):
        # The run's traced peak, counted from the moment its inputs are read,
        # stays within one bound at 10 and at 40 steps: one step's sample,
        # the index's memos and scratch, and the records, about 0.7 MB.  A
        # run holding every sample at once took 0.9 MB at 10 steps and
        # 1.8 MB at 40.  A first run fills the process's caches.
        resolve = trajectory.resolve_inputs

        def resolved(cfg):
            inputs = resolve(cfg)
            tracemalloc.reset_peak()
            return inputs

        monkeypatch.setattr(trajectory, "resolve_inputs", resolved)
        run_simulation(small_config(k_max=2, per_step=30))
        peaks = {}
        for k_max in (10, 40):
            tracemalloc.start()
            try:
                run_simulation(small_config(k_max=k_max, per_step=30))
                _, peaks[k_max] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < 2**20, peaks

    def test_a_finished_run_frees_its_step_scratch_at_once(self, monkeypatch):
        # The step buffers are freed at the return by reference counting
        # alone, with the index that holds them.
        buffers = []

        class Recorded(density.Scratch):
            def take(self, role, shape, dtype):
                view = super().take(role, shape, dtype)
                buffers.append(weakref.ref(self.buffers[role]))
                return view

        monkeypatch.setattr(density, "Scratch", Recorded)
        with collector_disabled():
            run_simulation(small_config(k_max=2, window=2))
            alive = [ref() is not None for ref in buffers]
        assert alive and not any(alive)

    def test_gram_sets_come_from_the_estimator_config(self, monkeypatch):
        # One index per run, made by cfg.estimator.gram_index() under the
        # run's ngram.* settings, builds every gram set of every agent.
        made, built = [], []
        gram_index = EstimatorConfig.gram_index
        monkeypatch.setattr(
            EstimatorConfig, "gram_index", lambda est: made.append((est, gram_index(est))) or made[-1][1]
        )
        monkeypatch.setattr(
            trajectory,
            "build_step_samples",
            lambda *args, **kw: built.append((kw["gram_set"], [])) or yielding(built[-1][1].append)(*args, **kw),
        )
        est = EstimatorConfig(n_min=2, n_max=4, include_space=False)
        cfg = small_config(k_max=2, window=2, estimator=est)
        run_simulation(cfg)
        assert [made_for for made_for, _ in made] == [est]
        index = made[0][1]
        assert index.settings == (2, 4, False)
        assert len(built) == len(cfg.agents)
        for gram_set, samples in built:
            assert gram_set is index and len(samples) == cfg.k_max
            for s in (s for sample in samples for t in sample.triplets for s in (t.x, t.y, t.z)):
                assert s.index is index
                assert s == ngram_set(s.source, 2, 4, False)

    @pytest.fixture
    def step_calls(self, monkeypatch) -> list[str]:
        """The kind of every agent whose step samples the run builds."""
        calls = []
        monkeypatch.setattr(
            trajectory,
            "build_step_samples",
            lambda *args, **kw: calls.append(args[0]) or build_step_samples(*args, **kw),
        )
        return calls

    @pytest.fixture
    def corpus_dir(self, tmp_path, monkeypatch):
        """A working directory holding a punctuated corpus, ``corpus.jsonl``."""
        docs = DocumentCollection(
            [Document(id=f"d{i}", text="the cat is on the mat. a dog was here.") for i in range(3)]
        )
        write_manifest(docs, tmp_path / "corpus.jsonl")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize(
        "spec,key",
        [
            (AgentSpec(kind="gold_file", name="structured", path="nope.jsonl"), "path"),
            (AgentSpec(kind="extractor", name="structured", lexicon_path="nope.txt"), "lexicon"),
        ],
        ids=["gold_file-path", "extractor-lexicon"],
    )
    def test_missing_agent_file_fails_before_any_step(self, step_calls, corpus_dir, spec, key):
        # Every agent's pool is resolved first: the last agent's missing file
        # stops the run before the first agent's samples are built.
        cfg = small_config(corpus_path="corpus.jsonl", agents=(AgentSpec(kind="random"), spec))
        with pytest.raises(ConfigInvalid, match=rf"^agent\.structured\.{key}: no such file: nope"):
            run_simulation(cfg)
        assert step_calls == []

    @pytest.mark.parametrize(
        "spec,key",
        [
            (AgentSpec(kind="gold_file", name="structured", path="empty.jsonl"), "path"),
            (AgentSpec(kind="extractor", name="structured", lexicon_path="empty.txt"), "lexicon"),
        ],
        ids=["gold_file-path", "extractor-lexicon"],
    )
    def test_empty_pool_fails_before_any_step(self, step_calls, corpus_dir, spec, key):
        # An empty triples file, or a lexicon that matches no sentence, leaves
        # the agent nothing to draw; the run stops before any agent's steps.
        (corpus_dir / "empty.jsonl").write_text("")
        (corpus_dir / "empty.txt").write_text("# no verbs\n")
        cfg = small_config(corpus_path="corpus.jsonl", agents=(AgentSpec(kind="random"), spec))
        message = rf"^agent\.structured\.{key}: agent 'structured' has an empty triple pool$"
        with pytest.raises(ConfigInvalid, match=message):
            run_simulation(cfg)
        assert step_calls == []

    def test_unfillable_context_length_fails_before_any_step(self, step_calls):
        # Synthetic documents hold 50 sentences of 6-8 tokens, far below 1000.
        cfg = small_config(
            context_length=1000,
            agents=(AgentSpec(kind="gold_file", name="structured"), AgentSpec(kind="random")),
        )
        with pytest.raises(ConfigInvalid, match=r"^context\.length: no document has >= 1000 tokens"):
            run_simulation(cfg)
        assert step_calls == []
        # Without a random agent no context is cut, so the length is not checked.
        _, pools = resolve_inputs(replace(cfg, agents=cfg.agents[:1]))
        assert len(pools["structured"]) == cfg.synthetic_sentences

    def test_inputs_resolve_each_agents_source(self, corpus_dir):
        # A path-less gold_file agent replays the synthetic gold triples;
        # one with a path reads it; an extractor mines the corpus.
        write_triplets([("s", "v", "o")], corpus_dir / "gold.jsonl")
        cfg = small_config()
        _, pools = resolve_inputs(cfg)
        assert list(pools) == ["structured"]
        assert pools["structured"] == trajectory.synthetic_inputs(cfg)[1]
        cfg = small_config(
            corpus_path="corpus.jsonl",
            agents=(
                AgentSpec(kind="gold_file", name="gold", path="gold.jsonl"),
                AgentSpec(kind="extractor", name="miner"),
            ),
        )
        docs, pools = resolve_inputs(cfg)
        assert len(docs) == 3
        assert pools["gold"] == [("s", "v", "o")]
        assert set(pools["miner"]) == {("the cat", "is", "on the mat."), ("a dog", "was", "here.")}

    def test_missing_corpus_named_by_its_key(self, tmp_path):
        cfg = small_config(corpus_path=str(tmp_path / "nope.jsonl"), agents=(AgentSpec(kind="random"),))
        with pytest.raises(ConfigInvalid, match=r"^corpus\.path: no such file: .*nope\.jsonl$"):
            run_simulation(cfg)

    def test_window_clamped_for_single_step(self, tmp_path):
        results = run_simulation(small_config(k_max=1, window=50, per_step=5))
        with pytest.warns(UserWarning, match="window 50 exceeds series length 1"):
            rolling = results["random"].rolling
        assert {name: len(values) for name, values in rolling.items()} == dict.fromkeys(MI_SERIES, 1)
        write_csv(results["random"], tmp_path / "random.csv")
        meta, _ = read_csv(tmp_path / "random.csv")
        assert meta["window"] == "1"

    def test_records_recompute_from_step_samples(self):
        # No hidden state: rebuilding the same agent stream and re-running
        # the estimator on one step reproduces the stored record exactly.
        cfg = small_config()
        results = run_simulation(cfg)
        samples = rebuilt_samples(cfg, cfg.estimator.gram_index())
        for name in ("random", "structured"):
            for sample, stored in zip(samples[name], results[name].records, strict=True):
                rec = compute_mi_record(sample.k, sample.triplets, cfg.estimator)
                assert rec == stored


class TestCsv:
    def test_header_exact_and_row_count(self, tmp_path):
        results = run_simulation(small_config())
        path = tmp_path / "random.csv"
        write_csv(results["random"], path)
        lines = path.read_text().splitlines()
        data = [line for line in lines if line and not line.startswith("#")]
        assert data[0] == CSV_HEADER
        assert (
            CSV_HEADER
            == "k,i_xy,i_yz,i_xz,i_xy_z,i_xz_y,h_x,h_y,h_z,"
            "reward_margin,reward_xy_dominance,demarcken_ok"
        )
        assert len(data) == 1 + 6

    def test_round_trip_precision(self, tmp_path):
        results = run_simulation(small_config())
        path = tmp_path / "structured.csv"
        write_csv(results["structured"], path)
        meta, columns = read_csv(path)
        assert meta["agent"] == "structured"
        for rec, i_xy, h_x in zip(results["structured"].records, columns["i_xy"], columns["h_x"]):
            assert abs(i_xy - rec.i_xy) < 1e-10
            assert abs(h_x - rec.h_x) < 1e-10

    @pytest.mark.parametrize(
        "row,cause",
        [("1,0.4", "2 cells, but the header has 3"), ("1,x,0.1", "i_xy: not a number: 'x'")],
        ids=["short-row", "not-a-number"],
    )
    def test_bad_data_row_named_by_file_and_line(self, tmp_path, row, cause):
        # A short row read silently would put its series out of step.
        path = tmp_path / "run.csv"
        path.write_text(f"# seed = 1\nk,i_xy,i_xz\n0,0.5,0.1\n{row}\n", encoding="utf-8")
        with pytest.raises(MalformedLine) as info:
            read_csv(path)
        assert str(info.value) == f"{path}: line 4: {cause}"

    def test_demarcken_column_is_binary(self, tmp_path):
        results = run_simulation(small_config())
        path = tmp_path / "random.csv"
        write_csv(results["random"], path)
        _, columns = read_csv(path)
        assert set(columns["demarcken_ok"]) <= {0.0, 1.0}

    def test_byte_identical_for_same_seed(self, tmp_path):
        for tag in ("a", "b"):
            results = run_simulation(small_config())
            write_csv(results["structured"], tmp_path / f"{tag}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
