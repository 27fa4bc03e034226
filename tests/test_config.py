from __future__ import annotations

import importlib.util
import re
import shlex
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from setinfo import CSV_HEADER, AgentSpec, ConfigInvalid, EstimatorConfig, RunConfig, parse_config_text
from setinfo.cli import _build_parser
from setinfo.config import (
    MalformedLine,
    as_bool,
    as_float,
    as_int,
    as_list,
    as_phrases,
    load_config,
    read_jsonl,
    write_jsonl,
)
from setinfo.trajectory import AGENT_KEYS, CONFIG_SCHEMA, grammar_from_file

REPO = Path(__file__).resolve().parents[1]
REPO_CONFIGS = REPO / "configs"


class TestParseConfigText:
    def test_basic_pairs(self):
        values = parse_config_text("a = 1\nb.c = hello world\n")
        assert values == {"a": "1", "b.c": "hello world"}

    def test_comments_and_blanks_skipped(self):
        values = parse_config_text("# top\n\na = 1  # trailing\n")
        assert values == {"a": "1"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("just words\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("= value\n")

    def test_repeated_key_rejected_naming_both_lines(self):
        # Before, the last value won silently: this text ran with seed 2.
        with pytest.raises(ConfigInvalid, match=r"^run\.seed: set on line 1 and again on line 3$"):
            parse_config_text("run.seed = 1\n# a comment\nrun.seed = 2\n")

    def test_repeated_key_in_a_run_config_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.k_max = 4\nrun.seed = 1\ncontext.per_step = 5\nrun.seed = 2\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match=r"^run\.seed: set on line 2 and again on line 4$"):
            RunConfig.from_file(path)


class TestAccessors:
    def test_bool(self):
        assert as_bool("true") and as_bool("Yes") and as_bool("1")
        assert not as_bool("false") and not as_bool("off")
        with pytest.raises(ConfigInvalid):
            as_bool("maybe")

    def test_int_and_float(self):
        assert as_int("42") == 42
        assert as_float("5.0") == 5.0
        with pytest.raises(ConfigInvalid):
            as_int("4.5")
        with pytest.raises(ConfigInvalid):
            as_float("five")

    def test_lists(self):
        assert as_list("a, b , c") == ["a", "b", "c"]
        assert as_phrases("the cat | a dog") == ["the cat", "a dog"]


class TestJsonl:
    def test_written_lines_read_back(self, tmp_path):
        path = tmp_path / "made" / "records.jsonl"
        write_jsonl([{"b": "\u00e9", "a": "1"}, {"a": "2"}], path)
        assert path.read_bytes() == b'{"a": "1", "b": "\\u00e9"}\n{"a": "2"}\n'
        records = list(read_jsonl(path, ("a",), optional=("b",)))
        assert records == [(1, {"a": "1", "b": "\u00e9"}), (2, {"a": "2"})]

    @pytest.mark.parametrize(
        "line,cause",
        [
            (b'{"a": ', "invalid JSON (Expecting value)"),
            (b'{"a": "caf\xe9"}', "invalid UTF-8 (invalid continuation byte)"),
            (b'["a"]', "line is not a JSON object"),
            (b'{"a": 1}', "missing or non-string 'a' field"),
            (b'{"b": "x"}', "missing or non-string 'a' field"),
            (b'{"a": "x", "b": null}', "non-string 'b' field"),
        ],
        ids=["json", "utf-8", "not-object", "non-string", "missing", "optional-null"],
    )
    def test_malformed_line_named_by_its_file_and_number(self, tmp_path, line, cause):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"a": "ok"}\n\n  \n' + line + b"\n")  # blank lines count
        with pytest.raises(MalformedLine) as err:
            list(read_jsonl(path, ("a",), optional=("b",)))
        assert (err.value.path, err.value.line_no) == (path, 4)
        assert str(err.value) == f"{path}: line 4: {cause}"


def _load(name: str) -> dict[str, str]:
    return load_config(REPO_CONFIGS / name)


class TestShippedConfigs:
    def test_grammar_example_loads(self):
        grammar = grammar_from_file(REPO_CONFIGS / "grammar_example.cfg")
        assert len(grammar.subjects) == 20
        assert len(grammar.verbs) == 10
        assert len(grammar.objects) == 20
        assert grammar.p_pref == 0.8
        assert all(verb in grammar.preferred for verb in grammar.verbs)

    @pytest.mark.parametrize(
        "extra,named",
        [("grammar.p_prf = 0.5", "grammar.p_prf"), ("grammar.preferred.eats = a pie", "eats")],
    )
    def test_grammar_unknown_key_rejected(self, tmp_path, extra, named):
        path = tmp_path / "grammar.cfg"
        text = (REPO_CONFIGS / "grammar_example.cfg").read_text(encoding="utf-8")
        path.write_text(f"{text}\n{extra}\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match=named):
            grammar_from_file(path)

    def test_grammar_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "grammar.cfg"
        text = (REPO_CONFIGS / "grammar_example.cfg").read_text(encoding="utf-8")
        lines = text.splitlines()
        first = next(i for i, line in enumerate(lines, start=1) if line.startswith("grammar.p_pref ="))
        path.write_text("\n".join([*lines, "grammar.p_pref = 0.3"]) + "\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match=rf"^grammar\.p_pref: set on line {first} and again on line {len(lines) + 1}$"):
            grammar_from_file(path)

    def test_grammar_verbs_equal_once_normalized_rejected(self, tmp_path):
        path = tmp_path / "grammar.cfg"
        text = (REPO_CONFIGS / "grammar_example.cfg").read_text(encoding="utf-8")
        text = text.replace("grammar.verbs = lifts |", "grammar.verbs = lifts | Lifts |")
        path.write_text(f"{text}\ngrammar.preferred.Lifts = a fuel cell\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match=r"^grammar\.verbs: 'Lifts'"):
            grammar_from_file(path)

    @pytest.mark.parametrize("p_pref", ["2", "-0.5", "nan"])
    def test_grammar_p_pref_out_of_range_rejected(self, tmp_path, p_pref):
        path = tmp_path / "grammar.cfg"
        text = (REPO_CONFIGS / "grammar_example.cfg").read_text(encoding="utf-8")
        path.write_text(text.replace("grammar.p_pref = 0.8", f"grammar.p_pref = {p_pref}"))
        with pytest.raises(ConfigInvalid, match=r"^grammar\.p_pref"):
            grammar_from_file(path)

    @pytest.mark.parametrize(
        "name,n_groups",
        [("newsgroups_similar.cfg", 4), ("newsgroups_unrelated.cfg", 7)],
    )
    def test_topic_presets_parse(self, name, n_groups):
        cfg = RunConfig.from_dict(_load(name))  # reads no file under corpus.path
        assert cfg.corpus_path == "data/20news"
        assert cfg.groups is not None and len(cfg.groups) == n_groups
        assert cfg.strip_headers is True
        assert cfg.k_max == 120 and cfg.per_step == 100

    def test_synthetic_preset_parses(self):
        cfg = RunConfig.from_dict(_load("synthetic_run.cfg"))
        assert cfg.corpus_path == "synthetic"
        assert cfg.seed == 42
        assert cfg.estimator.entropy_mode == "raw"
        assert [a.kind for a in cfg.agents] == ["random", "gold_file"]

    def test_benchmark_configs_parse(self, tmp_path, monkeypatch):
        # perfbench/run.py writes each run's config with ``config_text``; a
        # schema change that rejected those configs would fail every
        # benchmark run, so it fails here first.
        spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
        bench = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, bench)  # where @dataclass looks the module up
        spec.loader.exec_module(bench)
        path = tmp_path / "run.cfg"
        for workload in bench.WORKLOADS.values():
            for sizes in (workload.sizes(), workload.sizes(tiny=True)):
                path.write_text(bench.config_text(workload, 1, sizes), encoding="utf-8")
                cfg = RunConfig.from_dict(load_config(path))
                assert cfg.estimator.joint_mode == workload.joint_mode
                assert (cfg.per_step, cfg.k_max) == (sizes["per_step"], sizes["steps"])

    # Every hashed key must keep being written exactly as before, or the
    # config_hash in existing CSVs no longer matches their config.
    @pytest.mark.parametrize(
        "name,digest",
        [
            ("synthetic_run.cfg", "7898330037ec"),
            ("newsgroups_similar.cfg", "bee12ff86cdf"),
            ("newsgroups_unrelated.cfg", "620f9972a4bf"),
        ],
    )
    def test_config_hash_pinned(self, name, digest):
        assert RunConfig.from_dict(_load(name)).config_hash() == digest

    def test_p_pref_not_hashed_under_grammar_file(self):
        # The grammar file supplies p_pref, so synthetic.p_pref changes nothing.
        grammar = str(REPO_CONFIGS / "grammar_example.cfg")
        hashes = {
            RunConfig.from_dict(
                {"synthetic.grammar": grammar, "synthetic.p_pref": p_pref}
            ).config_hash()
            for p_pref in ("0.3", "0.9")
        }
        assert len(hashes) == 1
        assert RunConfig.from_dict({"synthetic.p_pref": "0.3"}).config_hash() != (
            RunConfig.from_dict({"synthetic.p_pref": "0.9"}).config_hash()
        )


def test_readme_config_table_lists_exactly_the_schema_keys():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    schema = {key for key, *_ in CONFIG_SCHEMA}
    schema.update(f"agent.<name>.{suffix}" for suffix, _ in AGENT_KEYS)
    assert documented == schema


def test_every_config_field_is_a_config_key():
    # config_hash reads only CONFIG_SCHEMA and AGENT_KEYS, so a field neither
    # reaches would be an input the hash never sees.  An agent's name is part
    # of its keys; ``estimator`` and ``agents`` only hold the other fields.
    reached = {attr for _, attr, *_ in CONFIG_SCHEMA} | {f"agent.{attr}" for _, attr in AGENT_KEYS}
    declared = {f.name for f in fields(RunConfig)} - {"estimator", "agents"}
    declared |= {f"estimator.{f.name}" for f in fields(EstimatorConfig)}
    declared |= {f"agent.{f.name}" for f in fields(AgentSpec)} - {"agent.name"}
    assert sorted(declared - reached) == []


def test_readme_commands_parse():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    commands = [
        shlex.split(line)
        for block in readme.split("```")[1::2]
        for line in block.splitlines()
        if line.startswith("setinfo ")
    ]
    assert commands
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_csv_header_is_the_written_header():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Output formats", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    assert [block.strip() for block in blocks] == [CSV_HEADER]
