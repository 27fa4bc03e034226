"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one `ACCEPTANCE n <name>: PASS` line on success (visible
with ``pytest -s`` or in the captured output); a failed assertion marks the
criterion FAIL.  The two trajectory criteria run the full bundled synthetic
configuration (seed 42, 120 steps x 100 actions) and therefore account for
most of the suite's runtime.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import stats

from setinfo import (
    AgentSpec,
    EstimatorConfig,
    RunConfig,
    build_step_samples,
    run_simulation,
    write_all_csv,
)
from setinfo.checks import (
    entropy_range,
    estimator_identities,
    kernel_shape,
    metric_axioms,
    reward_consistency,
)
from setinfo.trajectory import read_csv


def report(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def full_scale_config(joint_mode: str, entropy_mode: str = "raw") -> RunConfig:
    return RunConfig(
        corpus_path="synthetic",
        synthetic_sentences=12000,
        synthetic_p_pref=0.8,
        context_length=10,
        per_step=100,
        k_max=120,
        window=50,
        seed=42,
        estimator=EstimatorConfig(
            bandwidth=5.0, entropy_mode=entropy_mode, joint_mode=joint_mode
        ),
        agents=(
            AgentSpec(kind="random"),
            AgentSpec(kind="gold_file", name="structured"),
        ),
    )


def assert_all_pass(checks) -> None:
    failed = [check.line() for check in checks if not check.passed]
    assert not failed, "\n".join(failed)


def test_criterion_1_metric_axioms():
    started = time.perf_counter()
    checks = metric_axioms(np.random.default_rng(101), 1000)
    elapsed = time.perf_counter() - started
    assert_all_pass(checks)
    assert elapsed < 5.0
    report(1, "metric axioms", f"1000 triples, exact, {elapsed:.2f}s")


def test_criterion_2_kernel_bounds_and_monotonicity():
    checks = kernel_shape(np.random.default_rng(202), 1000)
    assert_all_pass(checks)
    report(2, "kernel bounds", f"1000 pairs, {checks[-1].seen}, zero violations")


def test_criterion_3_estimator_identities():
    checks = estimator_identities(np.random.default_rng(303), 200)
    assert_all_pass(checks)
    names = ("symmetry", "self_mi", "chain", "likelihood")
    report(
        3,
        "estimator identities",
        "200 samples; worst "
        + ", ".join(f"{k}={check.worst:.2e}" for k, check in zip(names, checks)),
    )


def test_criterion_4_entropy_range():
    assert_all_pass(entropy_range(np.random.default_rng(404), 200))
    report(4, "normalized entropy range", "200 samples, 0 <= H <= ln(n)")


def test_criterion_5_splitter_uniformity():
    # The cuts a run draws: one random step over a corpus of one context.
    length = 10
    draws = 36000
    tokens = [f"t{i}" for i in range(length)]
    gram_set = EstimatorConfig().gram_index()
    (sample,) = build_step_samples("random", [tokens], 1, draws, np.random.default_rng(2024), length, gram_set)
    counts: dict[tuple[int, int], int] = {}
    for t in sample.triplets:
        i = len(t.x.source.split())
        j = i + len(t.y.source.split())
        counts[(i, j)] = counts.get((i, j), 0) + 1
    assert sum(counts.values()) == draws
    cells = [(i, j) for i in range(1, length) for j in range(i + 1, length)]
    assert len(cells) == 36
    expected = draws / len(cells)
    chi2 = sum((counts.get(cell, 0) - expected) ** 2 / expected for cell in cells)
    critical = stats.chi2.ppf(1 - 0.001, df=len(cells) - 1)
    assert chi2 < critical
    report(5, "splitter uniformity", f"chi2={chi2:.1f} < {critical:.1f} at p=0.001")


@pytest.fixture(scope="module")
def full_scale_run():
    """The full-scale run of a (joint mode, entropy mode), as (results, seconds), made once per module."""
    runs = {}

    def run(joint_mode: str, entropy_mode: str = "raw"):
        if (joint_mode, entropy_mode) not in runs:
            started = time.perf_counter()
            results = run_simulation(full_scale_config(joint_mode, entropy_mode))
            runs[joint_mode, entropy_mode] = results, time.perf_counter() - started
        return runs[joint_mode, entropy_mode]

    return run


def test_criterion_6_structured_mi_separation(full_scale_run):
    details = []
    for joint_mode in ("union", "concat"):
        results, elapsed = full_scale_run(joint_mode)
        structured = results["structured"]
        random_agent = results["random"]

        xy = structured.rolling["i_xy"]
        yz = structured.rolling["i_yz"]
        xz = structured.rolling["i_xz"]
        assert len(xy) == 120 - 50 + 1
        dominant = sum(1 for a, b, c in zip(xy, yz, xz) if a > b and a > c)
        fraction = dominant / len(xy)
        assert fraction >= 0.90, joint_mode

        mean_structured = fmean_records(structured.records)
        mean_random = fmean_records(random_agent.records)
        assert mean_structured > mean_random, joint_mode
        assert elapsed <= 120.0
        details.append(
            f"{joint_mode}: i_xy dominant at {dominant}/{len(xy)} rolling points; "
            f"mean i_xy {mean_structured:.3f} > {mean_random:.3f}; {elapsed:.0f}s"
        )
    report(6, "structured MI separation", "; ".join(details))


def test_normalized_mode_ranks_yz_above_xy(full_scale_run):
    # What the default entropy mode shows at full scale: the structured agent's
    # strongest MI is the verb-object one, i_yz, and its i_xy still sits above
    # the random agent's.  Criterion 6's dominance does not hold in this mode.
    results, _ = full_scale_run("union", "normalized")
    structured, random_agent = results["structured"].records, results["random"].records
    mean_yz = sum(rec.i_yz for rec in structured) / len(structured)
    assert mean_yz > fmean_records(structured) > fmean_records(random_agent)


def fmean_records(records) -> float:
    return sum(rec.i_xy for rec in records) / len(records)


def test_criterion_7_joint_mass_monitor(full_scale_run, tmp_path):
    results, _ = full_scale_run("concat")
    fractions = {}
    for name, result in results.items():
        fraction = result.violation_fraction
        assert 0.0 <= fraction <= 1.0
        assert result.comparisons == 120 * 100 * 3 * 2
        fractions[name] = fraction
    paths = write_all_csv(results, tmp_path)
    for path in paths:
        meta, _ = read_csv(path)
        assert "joint_mass_violation_fraction" in meta
    report(
        7,
        "joint-mass monitor (concat)",
        "; ".join(f"{name}: {fraction:.4g}" for name, fraction in fractions.items()),
    )


def small_deterministic_config(**overrides) -> RunConfig:
    defaults = dict(
        corpus_path="synthetic",
        synthetic_sentences=600,
        k_max=6,
        per_step=25,
        window=3,
        seed=17,
        agents=(
            AgentSpec(kind="random"),
            AgentSpec(kind="gold_file", name="structured"),
        ),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_criterion_8_determinism(tmp_path):
    for tag in ("first", "second"):
        results = run_simulation(small_deterministic_config())
        write_all_csv(results, tmp_path / tag)
    for name in ("random", "structured"):
        a = (tmp_path / "first" / f"{name}.csv").read_bytes()
        b = (tmp_path / "second" / f"{name}.csv").read_bytes()
        assert a == b
    report(8, "determinism", "byte-identical CSVs")


def test_criterion_9_reward_consistency():
    assert_all_pass(reward_consistency(np.random.default_rng(909), 1000))
    report(9, "reward consistency", "1000 records, margin > 0 iff ordering holds")
