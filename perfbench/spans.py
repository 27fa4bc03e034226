"""Spans around the public functions of each ``setinfo`` layer, and their summary.

The tracer wraps functions from outside the program: every module of the
package that holds a reference to a traced function gets the wrapper in its
place, so calls between modules (``agents`` calling ``ngrams.ngram_set``,
``trajectory`` calling ``density.compute_mi_record``) are seen as nested
spans.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter

# The layers on the ``simulate`` path and the public boundaries traced in each.
TRACED = {
    "ngrams": ("ngram_set", "join"),
    "corpus": ("sample_contexts",),
    "agents": ("synth_corpus", "build_step_samples"),
    "density": ("compute_mi_record", "joint_mass_monitor"),
    "trajectory": ("run_simulation", "write_all_csv"),
}
LAYERS = tuple(TRACED)


class Tracer:
    """Records (name, start, end, parent, tag) spans for one run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self._stack: list[int] = []
        self.ngram_texts: set[str] = set()
        self.samples: list[tuple[tuple, object]] = []

    def install(self) -> None:
        """Replace every package reference to a traced function by its wrapper."""
        for layer, names in TRACED.items():
            module = importlib.import_module(f"setinfo.{layer}")
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name != "setinfo" and not mod_name.startswith("setinfo."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _observe(self, name: str, args: tuple, kwargs: dict) -> str:
        """Note what the workload summary needs from a call; return the span tag."""
        if name == "ngrams.ngram_set":
            self.ngram_texts.add(args[0] if args else kwargs["text"])
        elif name == "density.compute_mi_record":
            self.samples.append((tuple(args[1]), args[2]))
        elif name == "agents.build_step_samples":
            source = args[0] if args else kwargs["source"]
            return source if isinstance(source, str) else source.kind
        return ""

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = self._observe(name, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tag)

        return wrapper

    def write(self, path: Path, run_id: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("run", "id", "parent", "name", "start", "end", "tag"))
            for idx, span in enumerate(self.spans):
                if span is None:  # a call that never returned
                    continue
                name, start, end, parent, tag = span
                out.writerow((run_id, idx, parent, name, repr(start), repr(end), tag))

    def sample_stats(self, join) -> dict[str, float]:
        """Distinct shares and vocabulary sizes of the step samples seen.

        ``join`` is the untraced ``ngrams.join``, so these counts add no spans.
        """
        marginal = [0, 0]
        joint = [0, 0]
        vocab = []
        for triplets, cfg in self.samples:
            def j(a, b):
                return join(a, b, cfg.joint_mode, cfg.n_min, cfg.n_max, cfg.include_space)

            xs = [t.x for t in triplets]
            ys = [t.y for t in triplets]
            zs = [t.z for t in triplets]
            xys = [j(x, y) for x, y in zip(xs, ys)]
            families_m = (xs, ys, zs)
            families_j = (
                xys,
                [j(y, z) for y, z in zip(ys, zs)],
                [j(x, z) for x, z in zip(xs, zs)],
                [j(xy, z) for xy, z in zip(xys, zs)],
            )
            for acc, families in ((marginal, families_m), (joint, families_j)):
                for fam in families:
                    acc[0] += len({s.grams for s in fam})
                    acc[1] += len(fam)
            grams: set[str] = set()
            for s in xs + ys + zs:
                grams |= s.grams
            vocab.append(len(grams))
        return {
            "density.distinct_share.marginal": marginal[0] / marginal[1],
            "density.distinct_share.joint": joint[0] / joint[1],
            "density.vocab_grams.p50": statistics.median(vocab),
        }


def read_spans(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["id"] = int(row["id"])
        row["parent"] = int(row["parent"])
        row["start"] = float(row["start"])
        row["end"] = float(row["end"])
    return rows


def summarize(rows: list[dict], total_s: float) -> dict[str, float]:
    """Per-layer self times, counts and step times from one run's spans.

    A span's self time is its duration minus the spans nested in it that
    belong to other layers, so a concat join's self time includes the grams
    it re-extracts.  A layer's self time sums the spans entered from another
    layer, so no time is counted twice.  Calls are synchronous: nested spans
    never overlap.
    """
    layer_of = {row["id"]: row["name"].split(".")[0] for row in rows}
    foreign_child_s: dict[int, float] = {}
    for row in rows:
        parent = row["parent"]
        if parent >= 0 and layer_of[parent] != layer_of[row["id"]]:
            foreign_child_s[parent] = foreign_child_s.get(parent, 0.0) + row["end"] - row["start"]
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self_s = dict.fromkeys(LAYERS, 0.0)
    mi_steps: list[tuple[str, float]] = []
    monitor_steps: list[float] = []
    agent_kind = ""
    for row in rows:  # written in call order
        name = row["name"]
        dur = row["end"] - row["start"]
        own = dur - foreign_child_s.get(row["id"], 0.0)
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        layer = layer_of[row["id"]]
        if row["parent"] < 0 or layer_of[row["parent"]] != layer:
            layer_self_s[layer] += own
        if name == "agents.build_step_samples":
            agent_kind = row["tag"]
        elif name == "density.compute_mi_record":
            mi_steps.append((agent_kind, dur))
        elif name == "density.joint_mass_monitor":
            monitor_steps.append(dur)
    if len(mi_steps) != len(monitor_steps) or not mi_steps:
        raise ValueError(
            f"{len(mi_steps)} compute_mi_record spans but {len(monitor_steps)} "
            "joint_mass_monitor spans; the per-step boundary was not observed"
        )
    step_ms = {"random": [], "pool": []}
    for (kind, mi_s), mon_s in zip(mi_steps, monitor_steps):
        step_ms["random" if kind == "random" else "pool"].append(1e3 * (mi_s + mon_s))

    out = {
        "ngrams.ngram_set.calls": calls.get("ngrams.ngram_set", 0),
        "ngrams.ngram_set.s": total.get("ngrams.ngram_set", 0.0),
        "ngrams.join.calls": calls.get("ngrams.join", 0),
        "ngrams.join.self_s": self_s.get("ngrams.join", 0.0),
        "corpus.sample_contexts.calls": calls.get("corpus.sample_contexts", 0),
        "corpus.sample_contexts.s": total.get("corpus.sample_contexts", 0.0),
        "agents.synth_corpus.s": total.get("agents.synth_corpus", 0.0),
        "agents.build_step_samples.self_s": self_s.get("agents.build_step_samples", 0.0),
        "density.compute_mi_record.calls": calls.get("density.compute_mi_record", 0),
        "density.compute_mi_record.self_s": self_s.get("density.compute_mi_record", 0.0),
        "density.joint_mass_monitor.self_s": self_s.get("density.joint_mass_monitor", 0.0),
        "density.step_ms.p50.random": statistics.median(step_ms["random"]),
        "density.step_ms.p50.pool": statistics.median(step_ms["pool"]),
        "trajectory.run_simulation.self_s": self_s.get("trajectory.run_simulation", 0.0),
        "trajectory.write_all_csv.s": total.get("trajectory.write_all_csv", 0.0),
    }
    for layer, seconds in layer_self_s.items():
        out[f"{layer}.self_share"] = seconds / total_s
    return out
