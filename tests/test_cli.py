from __future__ import annotations

import hashlib
import json
import re
from itertools import chain
from pathlib import Path

import pytest

from setinfo import RunConfig, load_documents, load_triplets, read_csv
from setinfo.cli import cli
from setinfo.trajectory import synthetic_inputs

from conftest import one_object_per_value

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_run_config(path, corpus="synthetic", extra=""):
    """A small run config; each ``key = value`` line of ``extra`` replaces the base line of its key, or is added."""
    lines = {
        "corpus.path": corpus,
        "synthetic.sentences": "400",
        "context.length": "10",
        "context.per_step": "15",
        "run.k_max": "4",
        "run.window": "2",
        "run.seed": "11",
        "agents": "random, structured",
        "agent.structured.kind": "gold_file",
    }
    for line in extra.splitlines():
        key, value = line.split("=", 1)
        lines[key.strip()] = value.strip()
    path.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert cli(["simulate", "--bogus"]) == 64
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self):
        assert cli(["transmogrify"]) == 64

    def test_no_arguments(self):
        assert cli([]) == 64

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("ingest", "gen-synthetic", "simulate", "plot", "check"):
            assert command in out


class TestGenSynthetic:
    def test_writes_corpus_and_gold(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "data"
        assert cli(["gen-synthetic", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "corpus.jsonl").exists()
        assert (out / "gold.jsonl").exists()
        gold_lines = (out / "gold.jsonl").read_text().splitlines()
        assert len(gold_lines) == 400
        record = json.loads(gold_lines[0])
        assert set(record) == {"x", "y", "z"}

    def test_identical_bytes_for_same_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        for tag in ("a", "b"):
            cli(["gen-synthetic", "--config", str(cfg), "--out", str(tmp_path / tag), "--seed", "42"])
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == (
            tmp_path / "b" / "corpus.jsonl"
        ).read_bytes()
        assert (tmp_path / "a" / "gold.jsonl").read_bytes() == (
            tmp_path / "b" / "gold.jsonl"
        ).read_bytes()

    def test_bytes_pinned(self, tmp_path):
        # SHA-256 of both files at seed 42, recorded before their two
        # writers became one: any change to a written byte shows here.
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "data"
        assert cli(["gen-synthetic", "--config", str(cfg), "--out", str(out), "--seed", "42"]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("corpus.jsonl", "gold.jsonl")}
        assert digests == {
            "corpus.jsonl": "05493d6e984441e28119da1e5a22876ecdabc56d44167d8630370e45b7d09d72",
            "gold.jsonl": "96c186152f41a9a4c1e6501155faf800ef98bbc18ad4a3811ccfec545beb82bf",
        }

    def test_written_corpus_loads_back_to_the_run_tokens(self, tmp_path):
        # With the built-in grammar and with a grammar file in mixed case and
        # doubled spaces, whose phrases are normalized as a gold file's are:
        # the written gold reads back as the gold that the run replays.
        grammar = tmp_path / "grammar.cfg"
        text = (REPO_CONFIGS / "grammar_example.cfg").read_text(encoding="utf-8")
        grammar.write_text(text.replace("the lab robot", "The Lab  Robot").replace("lifts", "Lifts"))
        for tag, extra in [("built-in", ""), ("mixed-case", f"synthetic.grammar = {grammar}")]:
            cfg, out = tmp_path / f"{tag}.cfg", tmp_path / tag
            write_run_config(cfg, extra=extra)
            assert cli(["gen-synthetic", "--config", str(cfg), "--out", str(out)]) == 0
            loaded = load_documents(out / "corpus.jsonl")
            docs, gold = synthetic_inputs(RunConfig.from_file(cfg))
            assert loaded.documents == docs.documents
            assert loaded.token_lists == docs.token_lists
            assert one_object_per_value(chain.from_iterable(loaded.token_lists))
            assert load_triplets(out / "gold.jsonl") == gold
        assert {"the lab robot", "lifts"} <= set(chain.from_iterable(gold))

    def test_non_synthetic_corpus_fails_validation(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg, corpus="corpus.jsonl", extra="agent.structured.path = gold.jsonl")
        out = tmp_path / "data"
        assert cli(["gen-synthetic", "--config", str(cfg), "--out", str(out)]) == 1
        assert "setinfo gen-synthetic: corpus.path" in capsys.readouterr().err
        assert not out.exists()

    def test_grammar_file_error_named_by_its_key(self, tmp_path, capsys):
        grammar = tmp_path / "grammar.cfg"
        text = (REPO_CONFIGS / "grammar_example.cfg").read_text(encoding="utf-8")
        grammar.write_text(re.sub(r"(?m)^grammar\.subjects = .*$", "grammar.subjects =", text))
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg, extra=f"synthetic.grammar = {grammar}")
        assert cli(["gen-synthetic", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 1
        assert re.fullmatch(
            r"setinfo gen-synthetic: synthetic\.grammar: grammar\.subjects must be non-empty\n",
            capsys.readouterr().err,
        )
        assert not (tmp_path / "data").exists()


class TestIngest:
    def test_directory_to_manifest(self, tmp_path, capsys):
        src = tmp_path / "corpus"
        (src / "groupx").mkdir(parents=True)
        (src / "groupx" / "a.txt").write_text("Some Raw TEXT here")
        manifest = tmp_path / "manifest.jsonl"
        assert cli(["ingest", "--in", str(src), "--out", str(manifest)]) == 0
        line = json.loads(manifest.read_text().splitlines()[0])
        assert line["text"] == "some raw text here"
        assert line["source_label"] == "groupx"

    def test_empty_directory_fails_validation(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.mkdir()
        assert cli(["ingest", "--in", str(src), "--out", str(tmp_path / "m.jsonl")]) == 1

    def test_missing_directory_fails(self, tmp_path):
        assert cli(["ingest", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "m.jsonl")]) == 1

    def test_file_given_as_directory_fails_naming_the_flag(self, tmp_path, capsys):
        text = tmp_path / "a.txt"
        text.write_text("Some raw text here")
        assert cli(["ingest", "--in", str(text), "--out", str(tmp_path / "m.jsonl")]) == 1
        assert capsys.readouterr().err == f"setinfo ingest: --in must be a corpus directory, got {text}\n"
        assert not (tmp_path / "m.jsonl").exists()


class TestSimulate:
    def test_writes_one_csv_per_agent(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "out"
        assert cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "random.csv").exists()
        assert (out / "structured.csv").exists()
        stdout = capsys.readouterr().out
        assert "joint mass monitor" in stdout
        assert "mean i_xy=" in stdout and "rolling i_xy dominant=" in stdout
        # Each agent's line splits its time into the build and the steps.
        lines = stdout.splitlines()
        assert len(lines) == 2
        assert all(re.search(r"build \d+\.\d\ds, steps \d+\.\d\ds$", line) for line in lines)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "out"
        cli(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(out)])
        meta, _ = read_csv(out / "random.csv")
        assert meta["seed"] == "99"

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "out"
        monkeypatch.setenv("SETINFO_SEED", "123")
        cli(["simulate", "--config", str(cfg), "--out", str(out)])
        meta, _ = read_csv(out / "random.csv")
        assert meta["seed"] == "123"

    def test_bad_env_seed_fails_validation(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        monkeypatch.setenv("SETINFO_SEED", "abc")
        assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "SETINFO_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "gen-synthetic"])
    def test_negative_seed_flag_fails_validation(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        assert cli([command, "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        assert f"setinfo {command}: --seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "gen-synthetic"])
    def test_negative_env_seed_fails_validation(self, tmp_path, monkeypatch, capsys, command):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        monkeypatch.setenv("SETINFO_SEED", "-1")
        assert cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert f"setinfo {command}: SETINFO_SEED must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_fails_validation(self, tmp_path):
        assert cli(["simulate", "--config", str(tmp_path / "none.cfg")]) == 1

    @pytest.mark.parametrize(
        "extra",
        [
            "run.seed = -1",
            "run.workers = 2",
            "corpus.groups =",
            # Read only from a loaded corpus, so never hashed unread.
            "corpus.groups = foo",
            "corpus.strip_headers = true",
            "agent.random.path = nothing.jsonl",
            "agent.random.lexicon = verbs.txt",
            "agent.structured.kind = extractor",
            # Files that do not exist are named by their key where they are opened.
            "synthetic.grammar = nope.cfg",
            "agent.structured.path = nope.jsonl",
            "agent.structured.lexicon = nope.txt\nagent.structured.kind = extractor\n"
            "corpus.path = {data}/corpus.jsonl",
        ],
    )
    def test_key_rejected_naming_it(self, tmp_path, capsys, extra):
        cfg = tmp_path / "run.cfg"
        if "{data}" in extra:
            write_run_config(cfg)
            cli(["gen-synthetic", "--config", str(cfg), "--out", str(tmp_path / "data")])
        write_run_config(cfg, extra=extra.format(data=tmp_path / "data"))
        capsys.readouterr()
        assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert f"setinfo simulate: {extra.split(' =')[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name,line,cause",
        [
            ("gold.jsonl", '{"x": "a", "y": " ", "z": "c"}', "empty 'y' field"),
            ("corpus.jsonl", "not json", "invalid JSON (Expecting value)"),
            ("corpus.jsonl", '{"id": "d", "text": "t", "source_label": null}', "non-string 'source_label' field"),
            ("corpus.jsonl", '{"id": "synthetic-0000", "text": "t"}', "duplicate document id 'synthetic-0000' (first on line 1)"),
        ],
        ids=["gold", "manifest", "manifest-label", "manifest-repeated-id"],
    )
    def test_malformed_input_line_named_by_its_file(self, tmp_path, capsys, name, line, cause):
        # The files gen-synthetic writes, read back by a run with line 2 of one replaced.
        cfg, data = tmp_path / "run.cfg", tmp_path / "data"
        write_run_config(cfg)
        assert cli(["gen-synthetic", "--config", str(cfg), "--out", str(data)]) == 0
        bad = data / name
        lines = bad.read_text(encoding="utf-8").splitlines()
        lines[1] = line
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_run_config(
            cfg, corpus=data / "corpus.jsonl", extra=f"agent.structured.path = {data / 'gold.jsonl'}"
        )
        capsys.readouterr()
        assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"setinfo simulate: {bad}: line 2: {cause}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "files,groups,cause",
        [
            ({"corpus.jsonl": ""}, None, "corpus.path: {corpus} holds no document"),
            ({"corpus/notes.md": "no text file here"}, None, "corpus.path: {corpus} holds no document"),
            ({"corpus/a/one.txt": "a b c d e f g h i j k l"}, "b, c", "corpus.groups: no document of {corpus} is in groups b, c"),
        ],
        ids=["empty-manifest", "no-txt-files", "groups-keep-none"],
    )
    def test_corpus_without_documents_named_by_its_key(self, tmp_path, capsys, files, groups, cause):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text, encoding="utf-8")
        corpus = tmp_path / next(iter(files)).split("/")[0]
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"x": "a", "y": "b", "z": "c"}\n', encoding="utf-8")
        extra = f"agent.structured.path = {gold}" + ("" if groups is None else f"\ncorpus.groups = {groups}")
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg, corpus=corpus, extra=extra)
        assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"setinfo simulate: {cause.format(corpus=corpus)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", ["run.kmax = 5", "agent.ghost.kind = random"])
    def test_unknown_key_fails_validation(self, tmp_path, capsys, extra):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg, extra=extra)
        assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert extra.split(" =")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_bandwidth_fails_validation(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg, extra="estimator.bandwidth = nan")
        assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "bandwidth must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_ngram_lengths_fail_validation(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg, extra="ngram.n_min = 3\nngram.n_max = 1")
        assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "ngram.n_max" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # SHA-256 of (random.csv, structured.csv), recorded before the per-step
    # estimator was rewritten as one pass: any change to a result shows here.
    @pytest.mark.parametrize(
        "extra,digests",
        [
            (
                "estimator.joint_mode = union\nestimator.entropy_mode = normalized",
                ("4f139efc95b2f925af1ff4f307dcd6466931a013a7beb269cf2eacd06457a3ea",
                 "0eab59930c30c7d7918e3f8c5711abe81023268db860eb1e6e04be08717850d0"),
            ),
            (
                "estimator.joint_mode = union\nestimator.entropy_mode = raw",
                ("39c9536518e3faf096d4b4c8cf714c79095ae469efa5bde69cfe446607999f3e",
                 "b40e67289cc8985d0d192e4b32f259cb9c28ad24ab29b6a4709948fff21891b6"),
            ),
            (
                "estimator.joint_mode = concat\nestimator.entropy_mode = normalized",
                ("5e0cb6a1f78d1e5010e4bc586be4921eb70f50f6d8f1430a1e62a8b8cd86a09d",
                 "53b0deb3f45e61fef21725d384f668311558fa1bf5ff78a737e5c6e7347cbc57"),
            ),
            (
                "estimator.joint_mode = concat\nestimator.entropy_mode = raw",
                ("4fba2768671f94f9185c138b977bcb1fa374f273dc6e42e7be97d7e219084848",
                 "88a29a210481062199d5a48620acfc4f2a2c2a0b4b15155509cc60b009f3bf5f"),
            ),
            (
                "estimator.joint_mode = concat\nestimator.entropy_mode = normalized\n"
                "ngram.include_space = false",
                ("26e25e49cb0fbeefbd2319fce545203c1e42091a6bd9aaff32bc20c2113e99a4",
                 "4143b15ea93d0bb109576deacc045a63ac05eec93469c42fcb5bf9c24a590821"),
            ),
            (
                "estimator.joint_mode = concat\nestimator.entropy_mode = raw\n"
                "ngram.include_space = false",
                ("a0c98b453e5e684839612826cebccdcc9abc58fdab5ea88aad57f67361ee28b6",
                 "7cbc857254796a18ae33d09ecbf22034f0689eff72f4cccad6f257263236ed8e"),
            ),
            (
                "estimator.joint_mode = concat\nngram.n_min = 2\nngram.n_max = 4",
                ("ba5eb636ea75e9e2425addbd065c766238df51bfd81d3e4c108e5374f4068f90",
                 "19bada26f5fd1233aa0bf04cc19872019b1b39aaee1fa59aab2ac3e4f8cc7597"),
            ),
            (
                "estimator.joint_mode = concat\nestimator.entropy_mode = raw\n"
                "ngram.n_min = 1\nngram.n_max = 1",
                ("83681cad81cc9f048c0d54c84e72bee1588c9a371008fb582f184ccbb729a39b",
                 "57c0abb4323bf110ad87c57ef23aa016bb5d1e2d136891aaeaa30e5346651cc7"),
            ),
            (
                "ngram.include_space = false\nngram.n_min = 2\nngram.n_max = 4",
                ("00ded24b9623c746b0bf2c5fcd7a736ee5f80550793e63c726421f48a12304ef",
                 "9e684b28fc455addf4f354726406a3a0e4ed8e4faab292dc473287f4d8d6bfcb"),
            ),
        ],
        ids=[
            "union-normalized", "union-raw", "concat-normalized", "concat-raw",
            "concat-nospace-normalized", "concat-nospace-raw", "concat-n2to4", "concat-raw-n1",
            "union-nospace-n2to4",
        ],
    )
    def test_csv_digests_pinned(self, tmp_path, extra, digests):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "synthetic.sentences = 600\ncontext.per_step = 12\nrun.k_max = 3\n"
            f"run.window = 2\nrun.seed = 5\n{extra}\n"
        )
        out = tmp_path / "out"
        assert cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        got = tuple(
            hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
            for name in ("random", "structured")
        )
        assert got == digests

    def test_gold_file_agent_from_disk(self, tmp_path):
        # gen-synthetic writes the very corpus and gold triples that simulate
        # draws for the same config, so a run on the files reproduces the
        # synthetic run; only the config hash differs.
        synthetic = tmp_path / "synthetic.cfg"
        write_run_config(synthetic)
        data = tmp_path / "data"
        assert cli(["gen-synthetic", "--config", str(synthetic), "--out", str(data)]) == 0
        from_disk = tmp_path / "disk.cfg"
        write_run_config(
            from_disk,
            corpus=str(data / "corpus.jsonl"),
            extra=f"agent.structured.path = {data / 'gold.jsonl'}",
        )
        for cfg in (synthetic, from_disk):
            assert cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
        for name in ("random", "structured"):
            lines = [
                [
                    line
                    for line in (tmp_path / stem / f"{name}.csv").read_text().splitlines()
                    if not line.startswith("# config_hash")
                ]
                for stem in ("synthetic", "disk")
            ]
            assert lines[0] == lines[1]
            assert len(lines[0]) == 10 + 1 + 4  # metadata, header, one row per step

    def test_gold_file_agent_without_path_off_synthetic_corpus_fails(self, tmp_path, capsys):
        data = tmp_path / "data"
        synthetic = tmp_path / "synthetic.cfg"
        write_run_config(synthetic)
        cli(["gen-synthetic", "--config", str(synthetic), "--out", str(data)])
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg, corpus=str(data / "corpus.jsonl"))
        out = tmp_path / "out"
        assert cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "setinfo simulate: agent.structured.path" in capsys.readouterr().err
        assert not out.exists()


class TestPlot:
    def test_renders_svg_from_csv_directory(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "out"
        cli(["simulate", "--config", str(cfg), "--out", str(out)])
        fig = tmp_path / "figs" / "mi.svg"
        assert (
            cli(
                [
                    "plot", "--in", str(out),
                    "--series", "i_xy,i_yz,i_xz",
                    "--out", str(fig), "--window", "2",
                ]
            )
            == 0
        )
        assert fig.exists()
        assert "<svg" in fig.read_text()

    def test_empty_series_selection_fails(self, tmp_path, recwarn):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "out"
        cli(["simulate", "--config", str(cfg), "--out", str(out)])
        recwarn.clear()
        assert (
            cli(["plot", "--in", str(out), "--series", "", "--out", str(tmp_path / "x.svg")])
            == 1
        )
        assert not recwarn.list  # no rolling mean was taken, so no window was clamped

    def test_empty_series_selection_fails_before_reading_csvs(self, tmp_path, capsys):
        (tmp_path / "run.csv").write_text("")  # reading it would fail: no header row
        assert cli(["plot", "--in", str(tmp_path), "--series", " , ", "--out", str(tmp_path / "x.svg")]) == 1
        assert "no series selected" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    def test_unknown_series_names_file_and_known_series(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "out"
        cli(["simulate", "--config", str(cfg), "--out", str(out)])
        assert cli(["plot", "--in", str(out), "--series", "i_xy,i_zz", "--out", str(tmp_path / "x.svg")]) == 1
        err = capsys.readouterr().err
        assert "random.csv: unknown series 'i_zz'" in err
        assert "known: ['i_xy', 'i_yz', 'i_xz', 'i_xy_z', 'i_xz_y']" in err

    def test_agent_in_two_csvs_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "out"
        cli(["simulate", "--config", str(cfg), "--out", str(out)])
        (out / "random_copy.csv").write_bytes((out / "random.csv").read_bytes())
        assert cli(["plot", "--in", str(out), "--out", str(tmp_path / "x.svg"), "--window", "2"]) == 1
        assert "agent 'random'" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    def test_bad_cell_fails_naming_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "out"
        cli(["simulate", "--config", str(cfg), "--out", str(out)])
        csv = out / "random.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        row = next(n for n, line in enumerate(lines) if line.startswith("k,")) + 1
        k, _, rest = lines[row].split(",", 2)  # the first step's i_xy replaced
        lines[row] = f"{k},x,{rest}"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli(["plot", "--in", str(out), "--out", str(tmp_path / "x.svg"), "--window", "2"]) == 1
        assert capsys.readouterr().err == f"setinfo plot: {csv}: line {row + 1}: i_xy: not a number: 'x'\n"
        assert not (tmp_path / "x.svg").exists()

    def test_window_below_one_fails_naming_the_flag_before_reading_csvs(self, tmp_path, capsys):
        (tmp_path / "run.csv").write_text("")  # reading it would fail: no header row
        assert cli(["plot", "--in", str(tmp_path), "--out", str(tmp_path / "x.svg"), "--window", "0"]) == 1
        assert capsys.readouterr().err == "setinfo plot: --window must be >= 1, got 0\n"
        assert not (tmp_path / "x.svg").exists()

    def test_no_csvs_fails(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert cli(["plot", "--in", str(empty), "--out", str(tmp_path / "x.svg")]) == 1


class TestCheck:
    def test_check_passes_and_reports(self, capsys):
        assert cli(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "check: 12/12 invariants hold" in out

    def test_violated_invariant_fails(self, capsys, monkeypatch):
        import setinfo.checks

        monkeypatch.setattr(setinfo.checks, "demarcken_check", lambda rec: (False, "forced"))
        assert cli(["check"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and "reward/ordering consistency" in fails[0]
