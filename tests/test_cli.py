from __future__ import annotations

import json

import pytest

from setinfo import RunConfig, read_csv
from setinfo.cli import _build_parser, cli


def write_run_config(path, corpus="synthetic", extra=""):
    path.write_text(
        f"""
corpus.path = {corpus}
synthetic.sentences = 400
context.length = 10
context.per_step = 15
run.k_max = 4
run.window = 2
run.seed = 11
agents = random, structured
agent.structured.kind = gold_file
{extra}
"""
    )


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
    def test_defaults_match_run_config(self):
        args = _build_parser().parse_args(["gen-synthetic", "--out", "data"])
        run = RunConfig()
        assert args.sentences == run.synthetic_sentences
        assert args.p_pref == run.synthetic_p_pref

    def test_writes_corpus_and_gold(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli(["gen-synthetic", "--out", str(out), "--sentences", "200", "--seed", "5"]) == 0
        assert (out / "corpus.jsonl").exists()
        assert (out / "gold.jsonl").exists()
        gold_lines = (out / "gold.jsonl").read_text().splitlines()
        assert len(gold_lines) == 200
        record = json.loads(gold_lines[0])
        assert set(record) == {"x", "y", "z"}

    @pytest.mark.parametrize("sentences", ["0", "-3"])
    def test_no_sentences_fails_validation(self, tmp_path, capsys, sentences):
        out = tmp_path / "data"
        assert cli(["gen-synthetic", "--out", str(out), "--sentences", sentences]) == 1
        assert "--sentences" in capsys.readouterr().err
        assert not out.exists()

    def test_identical_bytes_for_same_seed(self, tmp_path):
        for tag in ("a", "b"):
            cli(["gen-synthetic", "--out", str(tmp_path / tag), "--sentences", "500", "--seed", "42"])
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == (
            tmp_path / "b" / "corpus.jsonl"
        ).read_bytes()
        assert (tmp_path / "a" / "gold.jsonl").read_bytes() == (
            tmp_path / "b" / "gold.jsonl"
        ).read_bytes()


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

    def test_missing_config_fails_validation(self, tmp_path):
        assert cli(["simulate", "--config", str(tmp_path / "none.cfg")]) == 1

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

    def test_gold_file_agent_from_disk(self, tmp_path):
        data = tmp_path / "data"
        cli(["gen-synthetic", "--out", str(data), "--sentences", "300", "--seed", "3"])
        cfg = tmp_path / "run.cfg"
        write_run_config(
            cfg,
            corpus=str(data / "corpus.jsonl"),
            extra=f"agent.structured.path = {data / 'gold.jsonl'}",
        )
        out = tmp_path / "out"
        assert cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "structured.csv").exists()


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

    def test_empty_series_selection_fails(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_run_config(cfg)
        out = tmp_path / "out"
        cli(["simulate", "--config", str(cfg), "--out", str(out)])
        assert (
            cli(["plot", "--in", str(out), "--series", "", "--out", str(tmp_path / "x.svg")])
            == 1
        )

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
