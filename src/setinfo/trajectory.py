"""Full simulation runs: agents x steps x estimators, rolling stats, CSV output.

A run is described by a RunConfig (usually parsed from a flat key=value
file), produces one TrajectoryResult per configured agent, and is
deterministic given (config, seed): every step draws from its own generator
spawned off the master seed.
"""

from __future__ import annotations

import hashlib
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .agents import (
    SENTENCES_PER_DOC,
    AgentSpec,
    Surfaces,
    SynthGrammar,
    build_step_samples,
    default_grammar,
    resolve_pool,
    synth_corpus,
)
from .config import (
    ConfigInvalid,
    as_bool,
    as_float,
    as_int,
    as_list,
    as_phrases,
    load_config,
    require_file,
)
from .corpus import DocumentCollection, load_documents, normalize_text
from .density import EstimatorConfig, MiRecord, compute_mi_record, joint_mass_monitor
from .reward import demarcken_check, reward

MI_SERIES = ("i_xy", "i_yz", "i_xz", "i_xy_z", "i_xz_y")

CSV_HEADER = (
    "k,i_xy,i_yz,i_xz,i_xy_z,i_xz_y,h_x,h_y,h_z,"
    "reward_margin,reward_xy_dominance,demarcken_ok"
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a simulation run needs; defaults mirror the desk-scale setup.

    These field defaults are the only copy of the run defaults: config files
    are read and written through ``CONFIG_SCHEMA`` below.
    """

    corpus_path: str = "synthetic"
    strip_headers: bool = False
    groups: tuple[str, ...] | None = None
    context_length: int = 10
    per_step: int = 100
    k_max: int = 120
    window: int = 50
    seed: int = 0
    out_dir: str = "out"
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    agents: tuple[AgentSpec, ...] = (
        AgentSpec(kind="random"),
        AgentSpec(kind="gold_file", name="structured"),
    )
    synthetic_sentences: int = 12000
    synthetic_p_pref: float = SynthGrammar.p_pref
    synthetic_sentences_per_doc: int = SENTENCES_PER_DOC
    grammar_path: str | None = None

    def validate(self) -> None:
        if self.k_max < 1:
            raise ConfigInvalid(f"run.k_max must be >= 1, got {self.k_max}")
        if self.per_step < 1:
            raise ConfigInvalid(f"context.per_step must be >= 1, got {self.per_step}")
        if self.window < 1:
            raise ConfigInvalid(f"run.window must be >= 1, got {self.window}")
        if self.seed < 0:
            raise ConfigInvalid(f"run.seed must be >= 0, got {self.seed}")
        if self.groups == ():
            raise ConfigInvalid("corpus.groups must name at least one group, or be left out")
        if self.context_length < 3:
            raise ConfigInvalid(
                f"context.length must be >= 3 so contexts can be split, got {self.context_length}"
            )
        if self.synthetic_sentences < 1:
            raise ConfigInvalid(f"synthetic.sentences must be >= 1, got {self.synthetic_sentences}")
        if self.synthetic_sentences_per_doc < 1:
            raise ConfigInvalid(
                f"synthetic.sentences_per_doc must be >= 1, got {self.synthetic_sentences_per_doc}"
            )
        if not 0.0 <= self.synthetic_p_pref <= 1.0:
            raise ConfigInvalid(f"synthetic.p_pref must be in [0, 1], got {self.synthetic_p_pref}")
        if not self.agents:
            raise ConfigInvalid("agents: at least one agent must be configured")
        names = [spec.name for spec in self.agents]
        if len(set(names)) != len(names):
            raise ConfigInvalid(f"agents: names must be unique, got {names}")
        for spec in self.agents:
            key = f"agent.{spec.name}"
            if spec.path is not None and spec.kind != "gold_file":
                raise ConfigInvalid(f"{key}.path is read only by a gold_file agent, not {spec.kind}")
            if spec.lexicon_path is not None and spec.kind != "extractor":
                raise ConfigInvalid(f"{key}.lexicon is read only by an extractor agent, not {spec.kind}")
            # Only the synthetic corpus comes with a gold pool to draw from.
            if spec.kind == "gold_file" and spec.path is None and self.corpus_path != "synthetic":
                raise ConfigInvalid(
                    f"{key}.path: a gold_file agent needs a triples file unless "
                    "corpus.path = synthetic"
                )
            # Synthetic documents have no sentence punctuation, so an extractor
            # would take a whole document for one sentence.
            if spec.kind == "extractor" and self.corpus_path == "synthetic":
                raise ConfigInvalid(
                    f"{key}.kind: an extractor agent needs a corpus with sentence punctuation, "
                    "not corpus.path = synthetic"
                )

    def to_flat_dict(self) -> dict[str, str]:
        """Every key that can change a result, as ``from_dict`` reads it back.

        Unset optional values are left out, and so are the keys that change
        nothing for this config: the ``synthetic.*`` keys when the corpus is
        not synthetic, and ``synthetic.p_pref`` when a grammar file supplies
        ``p_pref``.
        """
        flat = {}
        for key, attr, _, fmt in CONFIG_SCHEMA:
            if fmt is None or (key.startswith("synthetic.") and self.corpus_path != "synthetic"):
                continue
            if key == "synthetic.p_pref" and self.grammar_path:
                continue
            text = fmt(attrgetter(attr)(self))
            if text is not None:
                flat[key] = text
        for spec in self.agents:
            for suffix, attr in AGENT_KEYS:
                value = getattr(spec, attr)
                if value is not None:
                    flat[f"agent.{spec.name}.{suffix}"] = str(value)
        return flat

    def config_hash(self) -> str:
        canon = "\n".join(f"{k} = {v}" for k, v in sorted(self.to_flat_dict().items()))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    @classmethod
    def from_dict(cls, values: dict[str, str]) -> "RunConfig":
        """Parse flat config values; keys left out keep the field defaults.

        An agent named like a default agent starts from that agent's spec;
        any other agent's kind defaults to its name.  Unknown keys, and
        ``agent.<name>.*`` keys for names not listed in ``agents``, are
        rejected.
        """
        default_agents = {spec.name: spec for spec in cls().agents}
        names = as_list(values["agents"]) if "agents" in values else list(default_agents)
        allowed = {key for key, *_ in CONFIG_SCHEMA}
        allowed.update(f"agent.{name}.{suffix}" for name in names for suffix, _ in AGENT_KEYS)
        unknown = sorted(set(values) - allowed)
        if unknown:
            hint = ""
            if any(key.startswith("agent.") for key in unknown):
                hint = f" (agent.<name>.* needs <name> in agents: {', '.join(names)})"
            raise ConfigInvalid(f"unknown config key(s): {', '.join(unknown)}{hint}")
        kwargs: dict[str, dict[str, object]] = {"": {}, "estimator": {}}
        for key, attr, parse, _ in CONFIG_SCHEMA:
            if parse is not None and key in values:
                value = parse(values[key], key)
                if attr is not None:
                    owner, _, name = attr.rpartition(".")
                    kwargs[owner][name] = value
        try:
            specs = []
            for name in names:
                given = {
                    attr: values[f"agent.{name}.{suffix}"]
                    for suffix, attr in AGENT_KEYS
                    if f"agent.{name}.{suffix}" in values
                }
                base = default_agents.get(name)
                specs.append(
                    replace(base, **given) if base else AgentSpec(given.pop("kind", name), name, **given)
                )
            cfg = cls(
                **kwargs[""],
                estimator=EstimatorConfig(**kwargs["estimator"]),
                agents=tuple(specs),
            )
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(load_config(path))


def _text(value: str, key: str) -> str:
    return value


def _items(value: str, key: str) -> tuple[str, ...]:
    return tuple(as_list(value))


def _one_thread(value: str, key: str) -> None:
    if as_int(value, key) != 1:
        raise ConfigInvalid(f"{key} must be 1, got {value}: a run's steps run on one thread")


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _fmt_bool(value: bool) -> str:
    return str(value).lower()


# The run-config schema: (key, RunConfig attribute, parser, formatter).  The
# formatter writes the value into ``to_flat_dict`` and so into
# ``config_hash``; it returns None to leave an unset value out.  Keys whose
# formatter is None cannot change a result and are not hashed.  Changing how
# a hashed key is written changes the hash of every existing run.  A key
# without an attribute sets no field: ``run.workers`` is still read, so that
# configs which set it to 1 keep parsing, and any other count is rejected.
CONFIG_SCHEMA = (
    ("corpus.path", "corpus_path", _text, str),
    ("corpus.strip_headers", "strip_headers", as_bool, _fmt_bool),
    ("corpus.groups", "groups", _items, lambda v: None if v is None else ", ".join(v)),
    ("context.length", "context_length", as_int, str),
    ("context.per_step", "per_step", as_int, str),
    ("run.k_max", "k_max", as_int, str),
    ("run.window", "window", as_int, str),
    ("run.seed", "seed", as_int, str),
    ("run.workers", None, _one_thread, None),
    ("run.out", "out_dir", _text, None),
    ("estimator.bandwidth", "estimator.bandwidth", as_float, _fmt),
    ("estimator.entropy_mode", "estimator.entropy_mode", _text, str),
    ("estimator.joint_mode", "estimator.joint_mode", _text, str),
    ("ngram.n_min", "estimator.n_min", as_int, str),
    ("ngram.n_max", "estimator.n_max", as_int, str),
    ("ngram.include_space", "estimator.include_space", as_bool, _fmt_bool),
    # Parsed with the agent.<name>.* keys in RunConfig.from_dict.
    ("agents", "agents", None, lambda specs: ", ".join(spec.name for spec in specs)),
    ("synthetic.sentences", "synthetic_sentences", as_int, str),
    ("synthetic.p_pref", "synthetic_p_pref", as_float, _fmt),
    ("synthetic.sentences_per_doc", "synthetic_sentences_per_doc", as_int, str),
    ("synthetic.grammar", "grammar_path", _text, lambda v: str(v) if v else None),
)

# Per-agent keys ``agent.<name>.<suffix>`` and the AgentSpec attribute each
# sets; every one that is set is hashed.
AGENT_KEYS = (("kind", "kind"), ("path", "path"), ("lexicon", "lexicon_path"))


@dataclass(frozen=True)
class TrajectoryResult:
    """What one agent's run measured: its per-step records and monitor counts.

    ``spec`` is the agent as configured.  Rewards, rolling means and the CSV
    metadata are derived from these fields where they are read.
    ``wall_time_s`` is the agent's whole time, of which ``build_time_s``
    went to ``build_step_samples``, summed over the call and each sample it
    yielded, and the rest to the estimator steps; neither is written to the
    CSV.
    """

    cfg: RunConfig
    spec: AgentSpec
    records: tuple[MiRecord, ...]
    violations: int
    comparisons: int
    wall_time_s: float
    build_time_s: float

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.comparisons if self.comparisons else 0.0

    @property
    def rolling(self) -> dict[str, list[float]]:
        """Each of the ``MI_SERIES`` averaged over ``cfg.window`` steps."""
        return {
            name: rolling_mean([getattr(rec, name) for rec in self.records], self.cfg.window)
            for name in MI_SERIES
        }


def rolling_mean(series: Sequence[float], window: int) -> list[float]:
    """Sliding-window averages; output[i] covers series[i : i + window].

    A window longer than the series is clamped to its length (with a
    warning), so a nonempty series always yields at least one point.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(series)
    if n == 0:
        return []
    if window > n:
        warnings.warn(f"window {window} exceeds series length {n}; clamping", stacklevel=2)
        window = n
    return [math.fsum(series[i : i + window]) / window for i in range(n - window + 1)]


def grammar_from_file(path: str | Path) -> SynthGrammar:
    """Read phrase pools and preferences from a flat grammar config file.

    Every phrase is normalized as ``load_triplets`` normalizes a gold surface,
    so the synthetic gold a run replays is the gold that ``gen-synthetic``
    writes and a ``gold_file`` agent reads back.  ``grammar.preferred.<verb>``
    names the verb as the file writes it; two verbs that normalize to one are
    rejected.
    """
    values = load_config(path)
    for key in ("grammar.subjects", "grammar.verbs", "grammar.objects"):
        if key not in values:
            raise ConfigInvalid(f"grammar file is missing {key}")

    def phrases(key: str) -> tuple[str, ...]:
        return tuple(map(normalize_text, as_phrases(values[key])))

    written = as_phrases(values["grammar.verbs"])
    verbs = phrases("grammar.verbs")
    preferred: dict[str, tuple[str, ...]] = {}
    for verb, name in zip(verbs, written):
        if verb in preferred:
            raise ConfigInvalid(f"grammar.verbs: {name!r} is an earlier verb once normalized")
        key = f"grammar.preferred.{name}"
        if key not in values:
            raise ConfigInvalid(f"grammar file is missing {key}")
        preferred[verb] = phrases(key)
    allowed = {"grammar.subjects", "grammar.verbs", "grammar.objects", "grammar.p_pref"}
    unknown = sorted(set(values) - allowed - {f"grammar.preferred.{name}" for name in written})
    if unknown:
        raise ConfigInvalid(f"unknown grammar key(s): {', '.join(unknown)}")
    optional = {}
    if "grammar.p_pref" in values:
        optional["p_pref"] = as_float(values["grammar.p_pref"], "grammar.p_pref")
    try:
        return SynthGrammar(
            subjects=phrases("grammar.subjects"),
            verbs=verbs,
            objects=phrases("grammar.objects"),
            preferred=preferred,
            **optional,
        )
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc


def synthetic_inputs(cfg: RunConfig) -> tuple[DocumentCollection, list[Surfaces]]:
    """The synthetic corpus and gold triples that a run of ``cfg`` draws.

    The grammar is ``synthetic.grammar`` if set, else the built-in pools with
    ``synthetic.p_pref``.  The draw comes from the first generator spawned off
    ``cfg.seed``; ``run_simulation`` gives its agents the ones after it, and
    child 0 of ``spawn(n)`` is the same stream for every n.
    """
    if cfg.corpus_path != "synthetic":
        raise ConfigInvalid(f"corpus.path must be synthetic, got {cfg.corpus_path!r}")
    if cfg.grammar_path:
        path = require_file(cfg.grammar_path, "synthetic.grammar")
        try:
            grammar = grammar_from_file(path)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"synthetic.grammar: {exc}") from exc
    else:
        grammar = default_grammar(p_pref=cfg.synthetic_p_pref)
    (corpus_rng,) = np.random.default_rng(cfg.seed).spawn(1)
    return synth_corpus(
        cfg.synthetic_sentences,
        corpus_rng,
        grammar,
        sentences_per_doc=cfg.synthetic_sentences_per_doc,
    )


def resolve_inputs(cfg: RunConfig) -> tuple[DocumentCollection, dict[str, list[Surfaces]]]:
    """The run's documents and each pool agent's surface triples, read before any step.

    The one place an agent's source is decided: a ``gold_file`` agent reads
    its ``path``, or without one replays the ``synthetic_inputs`` gold; an
    extractor mines the documents; a random agent cuts contexts of them and
    has no pool.  A missing file, a corpus without documents (``corpus.path``,
    or ``corpus.groups`` when its filter kept none), an empty pool, or a
    ``context.length`` no document fills for a random agent is a
    ConfigInvalid naming its key.
    """
    cfg.validate()
    gold: list[Surfaces] = []
    if cfg.corpus_path == "synthetic":
        docs, gold = synthetic_inputs(cfg)
    else:
        corpus_path = require_file(cfg.corpus_path, "corpus.path", dir_ok=True)
        docs = load_documents(corpus_path, cfg.strip_headers, cfg.groups)
        if not docs:
            if cfg.groups is not None and load_documents(corpus_path, cfg.strip_headers):
                raise ConfigInvalid(f"corpus.groups: no document of {corpus_path} is in groups {', '.join(cfg.groups)}")
            raise ConfigInvalid(f"corpus.path: {corpus_path} holds no document")
    longest = max(map(len, docs.token_lists), default=0)
    if longest < cfg.context_length and any(spec.kind == "random" for spec in cfg.agents):
        raise ConfigInvalid(f"context.length: no document has >= {cfg.context_length} tokens")
    pools = {
        spec.name: gold if spec.kind == "gold_file" and spec.path is None else resolve_pool(spec, docs)
        for spec in cfg.agents
        if spec.kind != "random"
    }
    return docs, pools


def run_simulation(cfg: RunConfig) -> dict[str, TrajectoryResult]:
    """Simulate every configured agent and return one trajectory per agent.

    Every input is read by ``resolve_inputs`` before the first agent's
    steps, so a bad one fails the run at once; of the documents, only their
    token lists are kept from then on.  Every gram set of the run is built
    by ``build_step_samples`` through one ``cfg.estimator.gram_index()``,
    made for this call, whose gram ids and memos every step then uses.  The
    steps run one after another on the calling thread, which the index
    requires.  Each step's sample is measured as it is built and dropped
    before the next one is built, so the run holds one step's sample at a
    time, whatever ``k_max``.  Nothing the index holds points back to it,
    so the index, its memos and its scratch are freed with the call,
    without waiting for a cyclic collection.  Results are keyed by agent
    name in configuration order.
    """
    docs, pools = resolve_inputs(cfg)
    token_lists = docs.token_lists
    del docs
    est = cfg.estimator
    gram_index = est.gram_index()
    # Child 0 of the master seed is the synthetic corpus's generator.
    _, *agent_rngs = np.random.default_rng(cfg.seed).spawn(1 + len(cfg.agents))

    results: dict[str, TrajectoryResult] = {}
    for spec, agent_rng in zip(cfg.agents, agent_rngs):
        started = time.perf_counter()
        samples = build_step_samples(
            spec.kind,
            token_lists if spec.kind == "random" else pools[spec.name],
            k_max=cfg.k_max,
            per_step=cfg.per_step,
            rng=agent_rng,
            context_length=cfg.context_length,
            gram_set=gram_index,
        )
        build_time_s = time.perf_counter() - started
        records: list[MiRecord] = []
        violations = comparisons = 0
        while True:
            building = time.perf_counter()
            sample = next(samples, None)
            build_time_s += time.perf_counter() - building
            if sample is None:
                break
            records.append(compute_mi_record(sample.k, sample.triplets, est))
            step_violations, step_comparisons = joint_mass_monitor(sample.triplets, est)
            violations += step_violations
            comparisons += step_comparisons
            del sample  # freed before the next one is built
        results[spec.name] = TrajectoryResult(
            cfg=cfg,
            spec=spec,
            records=tuple(records),
            violations=violations,
            comparisons=comparisons,
            wall_time_s=time.perf_counter() - started,
            build_time_s=build_time_s,
        )
    return results


def write_csv(result: TrajectoryResult, path: str | Path) -> None:
    """One data row per step, with run metadata as leading '#' comments.

    Wall time is left out of the metadata so that identical (config, seed)
    runs stay byte-identical; ``window`` is the one ``rolling_mean`` uses.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    cfg, est = result.cfg, result.cfg.estimator
    meta = (
        ("seed", cfg.seed),
        ("agent", result.spec.name),
        ("label", result.spec.kind),
        ("config_hash", cfg.config_hash()),
        ("k_max", cfg.k_max),
        ("per_step", cfg.per_step),
        ("bandwidth", _fmt(est.bandwidth)),
        ("entropy_mode", est.entropy_mode),
        ("joint_mode", est.joint_mode),
        ("window", min(cfg.window, cfg.k_max)),
        ("joint_mass_violation_fraction", _fmt(result.violation_fraction)),
    )
    lines = [f"# {key} = {value}" for key, value in meta]
    lines.append(CSV_HEADER)
    for rec in result.records:
        ok, _ = demarcken_check(rec)
        lines.append(
            ",".join(
                [
                    str(rec.k),
                    _fmt(rec.i_xy),
                    _fmt(rec.i_yz),
                    _fmt(rec.i_xz),
                    _fmt(rec.i_xy_z),
                    _fmt(rec.i_xz_y),
                    _fmt(rec.h_x),
                    _fmt(rec.h_y),
                    _fmt(rec.h_z),
                    _fmt(reward(rec, "margin")),
                    _fmt(reward(rec, "xy_dominance")),
                    str(int(ok)),
                ]
            )
        )
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_all_csv(results: dict[str, TrajectoryResult], out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    paths = []
    for name, result in results.items():
        path = out / f"{name}.csv"
        write_csv(result, path)
        paths.append(path)
    return paths


def read_csv(path: str | Path) -> tuple[dict[str, str], dict[str, list[float]]]:
    """Parse a trajectory CSV back into (metadata, column series)."""
    meta: dict[str, str] = {}
    columns: dict[str, list[float]] = {}
    header: list[str] | None = None
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
            columns = {name: [] for name in header}
            continue
        for name, cell in zip(header, line.split(",")):
            columns[name].append(float(cell))
    if header is None:
        raise ValueError(f"no header row found in {path}")
    return meta, columns
