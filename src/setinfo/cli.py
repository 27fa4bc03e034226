"""Command-line entry point.

Subcommands: ingest (corpus directory -> manifest), gen-synthetic (the
synthetic corpus + gold triples a run config draws), simulate (full runs ->
CSVs), plot (CSVs -> SVG), check (quick invariant report).  gen-synthetic
and simulate read the same run config and seed overrides.  Exit codes:
0 success, 1 validation failure, 2 runtime error, 64 usage.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import agents as agents_mod
from .config import ConfigInvalid, as_int
from .corpus import load_documents, write_manifest
from .reward import reward
from .svgplot import selected_series, write_svg
from .trajectory import (
    MI_SERIES,
    RunConfig,
    read_csv,
    rolling_mean,
    run_simulation,
    synthetic_inputs,
    write_all_csv,
)

SEED_ENV_VAR = "SETINFO_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setinfo",
        description="MI trajectories over character n-gram random sets "
        "for simulated text-segmentation agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="normalize a corpus directory into a JSONL manifest")
    p_ingest.add_argument("--in", dest="in_path", required=True, help="corpus directory")
    p_ingest.add_argument("--out", dest="out_path", required=True, help="manifest file to write")
    p_ingest.add_argument("--strip-headers", action="store_true", help="drop newsgroup-style headers")

    p_gen = sub.add_parser("gen-synthetic", help="write the synthetic corpus and gold triples of a run")
    p_sim = sub.add_parser("simulate", help="run the configured agents and write one CSV per agent")
    for p_run in (p_gen, p_sim):
        p_run.add_argument("--config", required=True, help="run config file (flat key = value)")
        p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_gen.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p_sim.add_argument("--out", dest="out_dir", default=None, help="override the output directory")

    p_plot = sub.add_parser("plot", help="render rolling-mean curves from trajectory CSVs")
    p_plot.add_argument("--in", dest="in_path", required=True, help="CSV file or directory of CSVs")
    p_plot.add_argument("--series", default="i_xy,i_yz,i_xz", help="comma-separated series names")
    p_plot.add_argument("--out", dest="out_path", required=True, help="SVG file to write")
    p_plot.add_argument("--window", type=int, default=RunConfig.window, help="rolling-mean window")
    p_plot.add_argument("--title", default="", help="figure title")

    sub.add_parser("check", help="run the quick invariant suite and report pass/fail")
    return parser


def cmd_ingest(args: argparse.Namespace) -> int:
    if not Path(args.in_path).is_dir():
        raise ValueError(f"--in must be a corpus directory, got {args.in_path}")
    docs = load_documents(args.in_path, strip_headers=args.strip_headers)
    if len(docs) == 0:
        print("ingest: no non-empty .txt documents found", file=sys.stderr)
        return 1
    write_manifest(docs, args.out_path)
    print(f"ingest: wrote {len(docs)} documents to {args.out_path}")
    labels = docs.labels()
    if labels and labels != [""]:
        print(f"ingest: source labels: {', '.join(label or '(none)' for label in labels)}")
    return 0


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The config at ``--config``, its seed overridden by SETINFO_SEED, then by ``--seed``."""
    cfg = RunConfig.from_file(args.config)
    seed, source = args.seed, "--seed"
    if seed is None and SEED_ENV_VAR in os.environ:
        seed, source = as_int(os.environ[SEED_ENV_VAR], SEED_ENV_VAR), SEED_ENV_VAR
    if seed is None:
        return cfg
    if seed < 0:
        raise ConfigInvalid(f"{source} must be >= 0, got {seed}")
    return replace(cfg, seed=seed)


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    # Not resolve_inputs: agent.<name>.path may name the gold file written here.
    docs, gold = synthetic_inputs(_run_config(args))
    out = Path(args.out_dir)
    write_manifest(docs, out / "corpus.jsonl")
    agents_mod.write_triplets(gold, out / "gold.jsonl")
    print(f"gen-synthetic: {len(docs)} documents -> {out / 'corpus.jsonl'}")
    print(f"gen-synthetic: {len(gold)} gold triples -> {out / 'gold.jsonl'}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    out_dir = Path(args.out_dir) if args.out_dir else Path(cfg.out_dir)
    results = run_simulation(cfg)
    paths = write_all_csv(results, out_dir)
    for (name, result), path in zip(results.items(), paths):
        records = result.records
        ok = sum(1 for rec in records if reward(rec, "margin") > 0)
        rolling = result.rolling
        dominant = sum(
            1 for a, b, c in zip(rolling["i_xy"], rolling["i_yz"], rolling["i_xz"]) if a > b and a > c
        )
        print(
            f"simulate: {name} ({result.spec.kind}) -> {path} | "
            f"steps={len(records)} ordering_ok={ok}/{len(records)} | "
            f"mean i_xy={math.fsum(r.i_xy for r in records) / len(records):.4f} "
            f"rolling i_xy dominant={dominant}/{len(rolling['i_xy'])} | "
            f"joint mass monitor: fraction={result.violation_fraction:.6g} "
            f"({result.violations}/{result.comparisons} pairs) | "
            f"build {result.build_time_s:.2f}s, steps {result.wall_time_s - result.build_time_s:.2f}s"
        )
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    if args.window < 1:
        raise ValueError(f"--window must be >= 1, got {args.window}")
    names = selected_series(args.series)
    src = Path(args.in_path)
    files = sorted(src.glob("*.csv")) if src.is_dir() else [src]
    if not files:
        print(f"plot: no CSV files under {src}", file=sys.stderr)
        return 1
    bundles: dict[str, dict[str, list[float]]] = {}
    for file in files:
        meta, columns = read_csv(file)
        agent = meta.get("agent", file.stem)
        if agent in bundles:
            raise ValueError(f"{file}: agent {agent!r} is already plotted from another CSV")
        known = [name for name in MI_SERIES if name in columns]
        for name in names:
            if name not in known:
                raise ValueError(f"{file}: unknown series {name!r}; known: {known}")
        bundles[agent] = {name: rolling_mean(columns[name], args.window) for name in names}
    write_svg(bundles, names, args.out_path, title=args.title)
    print(f"plot: wrote {args.out_path} ({len(bundles)} agents)")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_checks

    report = run_checks()
    for check in report:
        print(check.line())
    held = sum(check.passed for check in report)
    print(f"check: {held}/{len(report)} invariants hold")
    return 0 if held == len(report) else 1


_HANDLERS = {
    "ingest": cmd_ingest,
    "gen-synthetic": cmd_gen_synthetic,
    "simulate": cmd_simulate,
    "plot": cmd_plot,
    "check": cmd_check,
}

# ValueError covers ConfigInvalid, MalformedLine, CorpusTooSmall and
# EmptySelection.
_VALIDATION_ERRORS = (ValueError, FileNotFoundError)


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 64
    try:
        return _HANDLERS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"setinfo {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"setinfo {args.command}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"setinfo {args.command}: unexpected error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
