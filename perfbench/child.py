"""One ``setinfo simulate`` run in a fresh process, reported as JSON.

Usage: python3 child.py --config CFG --out DIR --report FILE
                        [--spans FILE | --oracle-steps I[,I...]]

The run goes through the command-line entry point, as a user's would.
Untraced, only trajectory's per-step calls of ``compute_mi_record`` and
``joint_mass_monitor`` are timed.  With ``--spans`` the public functions of
every layer are wrapped instead (see spans.py).  The report's ``t_end`` is
``time.monotonic()`` after the CSVs are written, so the parent, which reads
the same clock before starting this process, gets the wall time from
interpreter start to output.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
MI_FIELDS = ("i_xy", "i_yz", "i_xz", "i_xy_z", "i_xz_y", "h_x", "h_y", "h_z")


class StepTimer:
    """Times trajectory's per-step estimator calls; keeps some steps for the oracle."""

    def __init__(self, trajectory, oracle_steps: set[int]) -> None:
        """``oracle_steps`` are 0-based step indices counted across all agents."""
        self.steps_s: list[float] = []
        self.kept: list[tuple] = []
        mi = trajectory.compute_mi_record
        monitor = trajectory.joint_mass_monitor

        def timed_mi(k, triplets, cfg):
            start = time.perf_counter()
            record = mi(k, triplets, cfg)
            self.steps_s.append(time.perf_counter() - start)
            if len(self.steps_s) - 1 in oracle_steps:
                self.kept.append((triplets, cfg, record))
            return record

        def timed_monitor(triplets, cfg):
            start = time.perf_counter()
            counts = monitor(triplets, cfg)
            self.steps_s[-1] += time.perf_counter() - start
            return counts

        trajectory.compute_mi_record = timed_mi
        trajectory.joint_mass_monitor = timed_monitor


def oracle_record(triplets, cfg) -> dict[str, float]:
    """The per-step record from the scalar ``kernel``/``hamming`` oracle and ``join``."""
    from setinfo import join, kernel

    def j(a, b):
        return join(a, b, cfg.joint_mode, cfg.n_min, cfg.n_max, cfg.include_space)

    def h(sets):
        # A member's capacity is the mean kernel against every member; kernels
        # are symmetric and depend only on gram sets, so each distinct pair is
        # evaluated once and weighted by how often its sets occur.
        counts = Counter(s.grams for s in sets)
        reps = {s.grams: s for s in sets}
        keys = list(reps)
        terms: dict = {key: [] for key in keys}
        for i, a in enumerate(keys):
            for b in keys[i:]:
                k = kernel(reps[a], reps[b], cfg.bandwidth)
                terms[a].append(counts[b] * k)
                if b is not a:
                    terms[b].append(counts[a] * k)
        mass = {key: math.fsum(terms[key]) / len(sets) for key in keys}
        if cfg.entropy_mode == "normalized":
            total = math.fsum(counts[key] * mass[key] for key in keys)
            mass = {key: p / total for key, p in mass.items()}
        return -math.fsum(counts[key] * p * math.log(p) for key, p in mass.items())

    xs = [t.x for t in triplets]
    ys = [t.y for t in triplets]
    zs = [t.z for t in triplets]
    xy = [j(x, y) for x, y in zip(xs, ys)]
    xz = [j(x, z) for x, z in zip(xs, zs)]
    hx, hy, hz, hxy, hxz = h(xs), h(ys), h(zs), h(xy), h(xz)
    return {
        "i_xy": hx + hy - hxy,
        "i_yz": hy + hz - h([j(y, z) for y, z in zip(ys, zs)]),
        "i_xz": hx + hz - hxz,
        "i_xy_z": hxy + hz - h([j(a, z) for a, z in zip(xy, zs)]),
        "i_xz_y": hxz + hy - h([j(a, y) for a, y in zip(xz, ys)]),
        "h_x": hx,
        "h_y": hy,
        "h_z": hz,
    }


def worst_oracle_error(kept: list[tuple]) -> float:
    worst = 0.0
    for triplets, cfg, record in kept:
        expected = oracle_record(triplets, cfg)
        for name in MI_FIELDS:
            got, want = getattr(record, name), expected[name]
            worst = max(worst, abs(got - want) / max(abs(got), abs(want), 1e-300))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--oracle-steps", default="")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    from setinfo import cli, ngrams, trajectory

    untraced_join = ngrams.join
    oracle_steps = {int(k) for k in args.oracle_steps.split(",") if k}
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        timer = None
    else:
        timer = StepTimer(trajectory, oracle_steps)

    code = cli.cli(["simulate", "--config", args.config, "--out", args.out])
    t_end = time.monotonic()
    report = {
        "t_end": t_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if code == 0 and timer is not None:
        report["steps_s"] = timer.steps_s
        report["oracle_records"] = len(timer.kept)
        report["oracle_worst_rel"] = worst_oracle_error(timer.kept)
    if code == 0 and args.spans:
        tracer.write(Path(args.spans), run_id=str(Path(args.out).parent.name))
        calls = sum(1 for s in tracer.spans if s and s[0] == "ngrams.ngram_set")
        text_share = len(tracer.ngram_texts) / calls if calls else 0.0
        # Concat joins re-enter the traced ngram_set, so this comes after the
        # spans and texts of the run have been taken.
        report["sample_stats"] = tracer.sample_stats(untraced_join)
        report["sample_stats"]["ngrams.ngram_set.distinct_text_share"] = text_share
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
