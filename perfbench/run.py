"""The setinfo benchmark: timed ``setinfo simulate`` runs with checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload union-mixed --seed 1 --seconds 60 --trace 0

Each run of the program is a fresh process (child.py) driving the same path
as ``setinfo simulate``: ``RunConfig.from_file`` -> ``run_simulation`` ->
``write_all_csv``, with ``run.workers = 1``.  A first, warm-up run is
checked but not measured.  Then runs repeat, one at a time, until
``--seconds`` is used up (at least MIN_RUNS of them), and the reported
figures are medians over runs.  Before each untraced run, the fixed kernel
in calibrate.py measures the host's current speed, and the end-to-end times
are scaled by CAL_REF_S over the kernel's mean time: they are the times the
runs would have taken had the kernel averaged CAL_REF_S.  The unscaled
medians are printed too.  ``--trace 1`` alternates untraced and traced runs
and reports the per-layer figures of the traced ones, unscaled.

Every run's output is checked: the CSV digest must match the one recorded in
digests.json for (workload, size, seed) and every other run of the same
inputs; in the warm-up run a few steps per agent are recomputed with the
scalar oracle; the structured agent's mean I(X,Y) must exceed the random
agent's.  Human-readable lines go first; the last line of standard output is
one JSON object.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
CALIBRATE = HERE / "calibrate.py"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"
MIN_RUNS = 5  # measured runs per untraced invocation; a traced one makes at least one pair
RUN_TIMEOUT_S = 150
# About calibrate.py's mean time on the 2-core Xeon this was sized on; fixed,
# so that scaled times of different invocations, commits and days compare.
# The kernel's time is bimodal (the host flips between a fast and a slow
# state every few seconds), so its mean, which follows the share of time
# spent slow, tracks the program's median run time; its median does not.
CAL_REF_S = 0.3
ORACLE_REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    joint_mode: str
    per_step: int
    steps: int
    sentences: int = 12000  # synthetic corpus size

    def sizes(self, tiny: bool = False) -> dict[str, int]:
        if tiny:
            return dict(TINY)
        return {"per_step": self.per_step, "steps": self.steps, "sentences": self.sentences}


# Why each workload is here:
# - union-mixed: the ROADMAP headline config (synthetic corpus, random + gold
#   agents, union joins), cut to 5 steps a run.  At that length about 40% of
#   total_s is setup, against ~15% in the 120-step headline run, so step_ms.*
#   is the metric that stands for the headline run's estimator cost.
#   Pool-backed steps are mostly duplicates, so it exercises multiplicity
#   weighting.
# - concat-mixed: the same inputs with concat joins, which re-extract grams
#   on every join; it exercises ngrams changes that union-mixed bypasses.
# Host speed on the shared 2-core Xeon this was sized on swings by 10-50%
# for seconds to minutes at a time, so an invocation makes many short runs
# and reports medians: a 60 s invocation holds 20-30 runs of either workload.
WORKLOADS = {
    "union-mixed": Workload("union", per_step=100, steps=5),
    "concat-mixed": Workload("concat", per_step=100, steps=6),
}
TINY = {"per_step": 12, "steps": 2, "sentences": 600}

END_TO_END_UNITS = {
    "total_s": "s",
    "setup_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "ngrams.ngram_set.calls": "count",
    "ngrams.ngram_set.s": "s",
    "ngrams.ngram_set.distinct_text_share": "ratio",
    "ngrams.join.calls": "count",
    "ngrams.join.self_s": "s",
    "corpus.sample_contexts.calls": "count",
    "corpus.sample_contexts.s": "s",
    "agents.synth_corpus.s": "s",
    "agents.build_step_samples.self_s": "s",
    "density.compute_mi_record.calls": "count",
    "density.compute_mi_record.self_s": "s",
    "density.joint_mass_monitor.self_s": "s",
    "density.step_ms.p50.random": "ms",
    "density.step_ms.p50.pool": "ms",
    "density.distinct_share.marginal": "ratio",
    "density.distinct_share.joint": "ratio",
    "density.vocab_grams.p50": "count",
    "trajectory.run_simulation.self_s": "s",
    "trajectory.write_all_csv.s": "s",
    "trajectory.csv_bytes": "bytes",
    "ngrams.self_share": "ratio",
    "corpus.self_share": "ratio",
    "agents.self_share": "ratio",
    "density.self_share": "ratio",
    "trajectory.self_share": "ratio",
    "trace_overhead_frac": "ratio",
}


class RunFailed(Exception):
    """One run of the program crashed or produced output that failed a check."""


def config_text(wl: Workload, seed: int, sizes: dict) -> str:
    steps = sizes["steps"]
    return "\n".join([
        "corpus.path = synthetic",
        "context.length = 10",
        f"context.per_step = {sizes['per_step']}",
        f"run.k_max = {steps}",
        f"run.window = {min(10, steps)}",
        f"run.seed = {seed}",
        "run.workers = 1",
        "estimator.bandwidth = 5.0",
        "estimator.entropy_mode = raw",
        f"estimator.joint_mode = {wl.joint_mode}",
        "ngram.n_min = 1",
        "ngram.n_max = 3",
        "ngram.include_space = true",
        "agents = random, structured",
        "agent.random.kind = random",
        "agent.structured.kind = gold_file",
        f"synthetic.sentences = {sizes['sentences']}",
        "synthetic.p_pref = 0.8",
    ]) + "\n"


def prepare(wl: Workload, seed: int, sizes: dict, work: Path) -> None:
    """Write the run config into ``work``."""
    (work / "run.cfg").write_text(config_text(wl, seed, sizes), encoding="utf-8")


def csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def mean_i_xy(path: Path) -> float:
    rows = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    col = rows[0].split(",").index("i_xy")
    return statistics.fmean(float(r.split(",")[col]) for r in rows[1:])


def calibrate() -> float:
    """Time the fixed host-speed kernel once, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(CALIBRATE)], capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True
    )
    return float(proc.stdout)


def one_run(work: Path, idx: int, traced: bool, oracle_steps: str, expected_steps: int) -> dict:
    """Run the program once in a fresh process; raises RunFailed."""
    run_dir = work / f"run{idx}"
    run_dir.mkdir()
    cmd = [
        sys.executable, str(CHILD),
        "--config", "run.cfg",
        "--out", str(run_dir / "out"),
        "--report", str(run_dir / "report.json"),
    ]
    if traced:
        cmd += ["--spans", str(run_dir / "spans.csv")]
    elif oracle_steps:
        cmd += ["--oracle-steps", oracle_steps]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=work, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"run timed out after {RUN_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return read_run(run_dir, t0, traced, oracle_steps, expected_steps)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise RunFailed(f"unreadable run output: {exc!r}") from exc


def read_run(run_dir: Path, t0: float, traced: bool, oracle_steps: str, expected_steps: int) -> dict:
    """Derive one run's figures from its report, CSVs and spans; check the step count and oracle."""
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    out = run_dir / "out"
    csvs = sorted(out.glob("*.csv"))
    if [p.name for p in csvs] != ["random.csv", "structured.csv"]:
        raise RunFailed(f"expected random.csv and structured.csv, got {[p.name for p in csvs]}")
    report["total_s"] = report["t_end"] - t0
    report["digest"] = csv_digest(out)
    report["csv_bytes"] = sum(p.stat().st_size for p in csvs)
    report["mean_i_xy"] = {p.stem: mean_i_xy(p) for p in csvs}
    if traced:
        from spans import read_spans, summarize

        layers = summarize(read_spans(run_dir / "spans.csv"), report["total_s"])
        layers.update(report["sample_stats"])
        layers["trajectory.csv_bytes"] = report["csv_bytes"]
        report["layers"] = layers
    else:
        steps = report["steps_s"]
        if len(steps) != expected_steps:
            raise RunFailed(
                f"timed {len(steps)} estimator steps, expected {expected_steps}; "
                "the per-step boundary was not observed"
            )
        report["setup_s"] = report["total_s"] - sum(steps)
        if oracle_steps and report["oracle_records"] != len(oracle_steps.split(",")):
            raise RunFailed(f"kept {report['oracle_records']} steps for the oracle, asked for {oracle_steps}")
        if report["oracle_worst_rel"] > ORACLE_REL_TOL:
            raise RunFailed(
                f"MiRecord differs from the scalar oracle by {report['oracle_worst_rel']:.3g} "
                f"relative (> {ORACLE_REL_TOL:g})"
            )
    return report


def check_outputs(report: dict, recorded: str | None, first: str | None) -> None:
    if recorded is not None and report["digest"] != recorded:
        raise RunFailed(f"CSV digest {report['digest'][:16]}... != recorded {recorded[:16]}...")
    if first is not None and report["digest"] != first:
        raise RunFailed("CSV bytes differ between runs of the same inputs")
    xy = report["mean_i_xy"]
    if not xy["structured"] > xy["random"]:
        raise RunFailed(f"structured mean i_xy {xy['structured']:.6g} <= random {xy['random']:.6g}")


def end_to_end(untraced: list[dict], scale: float = 1.0) -> dict[str, float]:
    """Medians over runs; times are multiplied by ``scale``."""
    steps_ms = [1e3 * s for r in untraced for s in r["steps_s"]]
    return {
        "total_s": scale * statistics.median(r["total_s"] for r in untraced),
        "setup_s": scale * statistics.median(r["setup_s"] for r in untraced),
        "step_ms.p50": scale * statistics.median(steps_ms),
        "step_ms.p90": scale * statistics.quantiles(steps_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in PER_LAYER_UNITS
        if name != "trace_overhead_frac"
    }
    out["trace_overhead_frac"] = (
        statistics.median(r["total_s"] for r in traced)
        / statistics.median(r["total_s"] for r in untraced)
        - 1.0
    )
    return out


def benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    wl = WORKLOADS[name]
    sizes = wl.sizes(tiny)
    key = f"{name}/{'tiny' if tiny else 'full'}/seed={seed}"
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(key)
    expected_steps = 2 * sizes["steps"]
    # Oracle checks, as step indices across agents: the first and last step of
    # each agent.
    steps = sizes["steps"]
    oracle_steps = f"0,{steps - 1},{steps},{2 * steps - 1}"
    min_runs = 2 if trace else MIN_RUNS

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    lines: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    warmup: dict = {}
    calibrations: list[float] = []
    attempted = failed = 0
    first_digest = None
    try:
        prepare(wl, seed, sizes, work)
        started = time.monotonic()
        durations: list[float] = []
        # Run 0 warms the file cache and runs the oracle; it is checked but
        # not measured.  Measured runs go in (untraced, traced) pairs when tracing.
        idx = 0
        group = 2 if trace else 1
        while True:
            measured = idx - 1
            if measured >= min_runs and measured % group == 0:
                if time.monotonic() - started + group * statistics.median(durations) > seconds:
                    break
            is_traced = trace and idx > 0 and idx % 2 == 0
            attempted += 1
            t_run = time.monotonic()
            if idx > 0 and not trace:
                calibrations.append(calibrate())
            try:
                report = one_run(
                    work, idx, is_traced,
                    oracle_steps if idx == 0 else "", expected_steps,
                )
                check_outputs(report, recorded, first_digest)
                first_digest = first_digest or report["digest"]
                if idx == 0:
                    warmup = report
                else:
                    (traced if is_traced else untraced).append(report)
            except RunFailed as exc:
                failed += 1
                print(f"run {idx} failed: {exc}", file=sys.stderr)
            durations.append(time.monotonic() - t_run)
            idx += 1

        metrics: dict[str, float] = {}
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        if untraced and trace and traced:
            metrics = per_layer(traced, untraced)
        elif untraced and not trace:
            scale = CAL_REF_S / statistics.fmean(calibrations)
            metrics = end_to_end(untraced, scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_steps = sum(len(r["steps_s"]) for r in untraced)
    lines.append(
        f"workload {name} seed {seed}: {attempted} runs (1 warm-up, {len(traced)} traced), "
        f"{n_steps} untraced step samples, CSV digest "
        + ("recorded" if recorded else "not recorded for this seed (runs must agree)")
    )
    if "oracle_records" in warmup:
        lines.append(
            f"oracle: {warmup['oracle_records']} records, worst relative difference "
            f"{warmup['oracle_worst_rel']:.3g}"
        )
    if untraced and not trace:
        lines.append(
            f"host: calibrate.py mean {statistics.fmean(calibrations):.4g} s "
            f"({min(calibrations):.4g}-{max(calibrations):.4g}) over {len(calibrations)} runs, "
            f"times scaled by {scale:.4g}; unscaled: "
            + ", ".join(f"{m} = {v:.6g}" for m, v in end_to_end(untraced).items())
        )
    for metric, value in metrics.items():
        lines.append(f"{metric} = {value:.6g} {units[metric]}")
    lines.append(f"fail_frac = {failed / attempted:.6g} ratio ({failed}/{attempted} runs)")
    print("\n".join(lines))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "setinfo" / "__init__.py").is_file():
        print(f"no setinfo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
