from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setinfo import (
    DegenerateDenominator,
    EmptySample,
    EstimatorConfig,
    LingSet,
    RunConfig,
    Triplet,
    capacity,
    compute_mi_record,
    conditional_entropy,
    entropy,
    hamming,
    join,
    joint_entropy,
    joint_mass_monitor,
    kernel,
    mutual_information,
    ngram_set,
    run_simulation,
    synth_corpus,
    triplet_likelihood,
)
from setinfo import density
from setinfo.agents import build_step_samples
from setinfo.density import (
    ENTROPY_MODES,
    JOINT_MODES,
    MiRecord,
    Scratch,
    _indicator_rows,
    _row_distances,
)
from setinfo.ngrams import GramIndex

from conftest import built_by, collector_disabled, lingsets, random_lingset

UNION = EstimatorConfig()
RAW = EstimatorConfig(entropy_mode="raw")
CONCAT = EstimatorConfig(joint_mode="concat")


def gauss(h: float, bandwidth: float = 5.0) -> float:
    # Closed-form oracle for the kernel, kept independent of the implementation.
    return math.exp(-(h**2) / (2 * bandwidth**2)) / math.sqrt(2 * math.pi * bandwidth**2)


def synthetic_set(tag: str, size: int) -> LingSet:
    # Direct construction lets tests pin exact distances without hunting for strings.
    return LingSet(grams=frozenset(f"{tag}{i}" for i in range(size)), source=tag)


PEAK = gauss(0.0)  # 0.07978845608028654 at bandwidth 5
EMPTY = LingSet(grams=frozenset(), source="")


def joined(firsts, seconds, cfg: EstimatorConfig) -> list[LingSet]:
    return [
        join(a, b, cfg.joint_mode, cfg.n_min, cfg.n_max, cfg.include_space)
        for a, b in zip(firsts, seconds)
    ]


def capacity_vector(family, cfg: EstimatorConfig) -> np.ndarray:
    """One family's capacities, as ``entropy`` computes them."""
    return density._capacities([list(family)], cfg)[0]


def step_capacities(triplets, cfg: EstimatorConfig) -> list[np.ndarray]:
    """A step's capacities of x, y, z, xy, yz, xz, xy+z and xz+y, as ``step`` computes them."""
    return density._capacities([[getattr(t, c) for t in triplets] for c in "xyz"], cfg)


def oracle_entropy(sets, cfg: EstimatorConfig) -> float:
    # Entropy from per-pair scalar kernels, independent of the matrix path.
    masses = [math.fsum(kernel(a, b, cfg.bandwidth) for b in sets) / len(sets) for a in sets]
    if cfg.entropy_mode == "normalized":
        total = math.fsum(masses)
        masses = [p / total for p in masses]
    return -math.fsum(p * math.log(p) for p in masses)


def triplet(x: str, y: str, z: str, cfg: EstimatorConfig = UNION) -> Triplet:
    return Triplet(*(ngram_set(t, cfg.n_min, cfg.n_max, cfg.include_space) for t in (x, y, z)))


def random_triplets(rng, n: int) -> list[Triplet]:
    return [
        Triplet(random_lingset(rng, 15), random_lingset(rng, 8), random_lingset(rng, 15))
        for _ in range(n)
    ]


class TestEstimatorConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.bandwidth == 5.0
        assert cfg.entropy_mode == "normalized"
        assert cfg.joint_mode == "union"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bandwidth": 0.0},
            {"bandwidth": -1.0},
            {"entropy_mode": "literal"},
            {"joint_mode": "zip"},
            {"bandwidth": float("nan")},
            {"bandwidth": float("inf")},
            {"n_min": 0},
            {"n_min": 3, "n_max": 1},
            {"bandwidth": 1e160},  # 2*pi*bandwidth**2 overflows
            {"bandwidth": 1e-170},  # 2*bandwidth**2 underflows to 0
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)

    @pytest.mark.parametrize("bandwidth", [1e150, 1e-150])
    def test_extreme_bandwidths_in_range_give_finite_values(self, bandwidth, rng):
        triplets = tuple(random_triplets(rng, 6)) + (triplet("the cat", "sat on", "the mat"),) * 2
        for mode in ENTROPY_MODES:
            for joint_mode in JOINT_MODES:
                cfg = EstimatorConfig(bandwidth=bandwidth, entropy_mode=mode, joint_mode=joint_mode)
                record = compute_mi_record(1, triplets, cfg)
                assert all(math.isfinite(v) for v in vars(record).values()), record
                assert math.isfinite(entropy([t.x for t in triplets], cfg))


class TestKernel:
    def test_peak_at_zero_distance(self):
        s = ngram_set("hello", 1, 3, True)
        assert kernel(s, s, 5.0) == pytest.approx(PEAK, abs=1e-15)
        assert PEAK == pytest.approx(0.0797885, abs=1e-7)

    def test_distance_five(self):
        a = ngram_set("a", 1, 1, True)
        b = ngram_set("abcdef", 1, 1, True)
        assert hamming(a, b) == 5
        assert kernel(a, b, 5.0) == pytest.approx(gauss(5), abs=1e-15)
        assert gauss(5) == pytest.approx(0.0483941, abs=1e-7)

    def test_distance_ten(self):
        a = synthetic_set("a", 4)
        b = synthetic_set("b", 6)
        assert hamming(a, b) == 10
        assert kernel(a, b, 5.0) == pytest.approx(gauss(10), abs=1e-15)
        assert gauss(10) == pytest.approx(0.0107982, abs=1e-7)

    def test_strictly_decreasing_in_distance(self):
        base = synthetic_set("x", 1)
        values = [kernel(base, synthetic_set("y", n), 5.0) for n in range(1, 40)]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))

    def test_underflow_boundary(self):
        # exp(-h^2/50) survives at h=190 and flushes to zero shortly after.
        near = synthetic_set("a", 190)
        far = synthetic_set("a", 200)
        origin = LingSet(grams=frozenset(), source="")
        assert kernel(origin, near, 5.0) > 0.0
        assert kernel(origin, far, 5.0) == 0.0

    def test_bad_bandwidth(self):
        s = ngram_set("x", 1, 1, True)
        for bandwidth in (0.0, float("nan"), float("inf"), 1e160, 1e-170):
            with pytest.raises(ValueError, match=r"^estimator\.bandwidth"):
                kernel(s, s, bandwidth)


class TestDistanceMatrix:
    @settings(deadline=None)
    @given(st.lists(st.one_of(lingsets, st.just(EMPTY)), min_size=1, max_size=12))
    @example([EMPTY])
    @example([EMPTY, EMPTY])
    def test_equals_pairwise_hamming(self, sets):
        sets = sets + sets[:3]  # repeated members
        expected = np.array([[hamming(a, b) for b in sets] for a in sets], dtype=np.float64)
        index, scratch = GramIndex(1, 3, True), Scratch()
        ids = [index.number(s.grams) for s in sets]
        got = _row_distances(_indicator_rows(ids, np.array([len(i) for i in ids]), scratch), scratch)
        assert np.array_equal(got, expected)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(1, 150),
        v=st.integers(0, 3000),
        density_=st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]),
        zero_share=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, v=2049, density_=1.0, zero_share=0.0, seed=0)  # past float16's exact range
    def test_float32_product_equals_float64_and_pairwise_hamming(
        self, n, v, density_, zero_share, seed
    ):
        rng = np.random.default_rng(seed)
        m = rng.random((n, v)) < density_
        m[rng.random(n) < zero_share] = False  # all-zero rows
        got = _row_distances(m, Scratch())
        f = m.astype(np.float64)
        sizes = f.sum(axis=1)
        assert np.array_equal(got, sizes[:, None] + sizes[None, :] - 2.0 * (f @ f.T))
        sets = [LingSet(frozenset(map(str, np.flatnonzero(row))), "") for row in m]
        for i in {0, n // 2, n - 1}:
            assert np.array_equal(got[i], [hamming(sets[i], b) for b in sets])

    def test_row_of_2_24_grams_rejected_before_any_float_cast(self):
        m = np.ones((1, 2**24), dtype=bool)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"fewer than 2\^24"):
                _row_distances(m, Scratch())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.nbytes  # a float32 copy of the row would take 4 * m.nbytes


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "given,expected",
    [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"OMP_NUM_THREADS": "2"}, "2"),
    ],
    ids=["unset", "openblas-set", "omp-set"],
)
def test_import_pins_blas_to_one_thread_unless_set(given, expected):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import os, setinfo; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**env, **given}, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == expected


def record_bits() -> list[str]:
    """``float.hex`` of every record value of a 12-step run (seed 42, 100 actions), per mode and agent."""
    fields = ("i_xy", "i_yz", "i_xz", "i_xy_z", "i_xz_y", "h_x", "h_y", "h_z")
    bits = []
    for joint_mode in JOINT_MODES:
        for entropy_mode in ENTROPY_MODES:
            estimator = EstimatorConfig(entropy_mode=entropy_mode, joint_mode=joint_mode)
            results = run_simulation(RunConfig(k_max=12, window=4, seed=42, estimator=estimator))
            bits += [getattr(r, f).hex() for result in results.values() for r in result.records for f in fields]
    return bits


def test_record_bits_do_not_depend_on_numpy_dispatch():
    # numpy picks its SIMD kernels at import, and NPY_DISABLE_CPU_FEATURES turns
    # the named targets off in the process that reads it; names a host lacks
    # are ignored.  Each subprocess runs the same 12 steps with fewer targets.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(Path(__file__).parent), env.get("PYTHONPATH")]))
    code = "import json, test_density; print(json.dumps(test_density.record_bits()))"
    levels = ["X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3"]
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", code], env={**env, "NPY_DISABLE_CPU_FEATURES": level},
            stdout=subprocess.PIPE, text=True,
        )
        for level in levels
    ]
    here = record_bits()
    assert len(here) == 2 * 2 * 2 * 12 * 8
    for level, run in zip(levels, runs):
        out, _ = run.communicate()
        assert run.returncode == 0
        there = json.loads(out)
        moved = sum(a != b for a, b in zip(here, there, strict=True))
        assert moved == 0, f"{moved} of {len(here)} record values differ with {level} disabled"


class TestCapacity:
    def test_single_member(self):
        s = ngram_set("abc", 1, 3, True)
        assert capacity(s, [s], UNION) == pytest.approx(PEAK, abs=1e-15)

    def test_two_member_mean(self):
        a = ngram_set("a", 1, 1, True)
        b = ngram_set("abcdef", 1, 1, True)
        expected = (gauss(0) + gauss(5)) / 2
        assert capacity(a, [a, b], UNION) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0640913, abs=1e-7)

    def test_copies_keep_peak(self):
        s = ngram_set("abc", 1, 3, True)
        for n in (1, 3, 10):
            assert capacity(s, [s] * n, UNION) == pytest.approx(PEAK, abs=1e-15)

    def test_empty_sample(self):
        s = ngram_set("x", 1, 1, True)
        with pytest.raises(EmptySample):
            capacity(s, [], UNION)

    def test_permutation_invariant(self, rng):
        sets = [random_lingset(rng) for _ in range(12)]
        target = random_lingset(rng)
        baseline = capacity(target, sets, UNION)
        for _ in range(5):
            perm = [sets[int(i)] for i in rng.permutation(len(sets))]
            assert capacity(target, perm, UNION) == pytest.approx(baseline, abs=1e-12)

    def test_bounded_by_peak(self, rng):
        sets = [random_lingset(rng) for _ in range(30)]
        for target in sets:
            assert 0.0 < capacity(target, sets, UNION) <= PEAK + 1e-15


class TestEntropy:
    def test_two_identical_normalized(self):
        a = ngram_set("abc", 1, 3, True)
        a_prime = ngram_set("abc", 1, 3, True)
        assert entropy([a, a_prime], UNION) == pytest.approx(math.log(2), abs=1e-12)

    def test_singleton_raw(self):
        s = ngram_set("abc", 1, 3, True)
        expected = -PEAK * math.log(PEAK)
        assert entropy([s], RAW) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.201740, abs=1e-5)

    def test_singleton_normalized_is_zero(self):
        s = ngram_set("abc", 1, 3, True)
        assert entropy([s], UNION) == pytest.approx(0.0, abs=1e-15)

    def test_n_copies_normalized_is_log_n(self):
        s = ngram_set("xyz", 1, 3, True)
        for n in (2, 5, 9):
            assert entropy([s] * n, UNION) == pytest.approx(math.log(n), abs=1e-12)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            entropy([], UNION)

    def test_normalized_range(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 21))
            values = [random_lingset(rng) for _ in range(n)]
            h = entropy(values, UNION)
            assert -1e-12 <= h <= math.log(n) + 1e-12


class TestJointEntropy:
    def test_identical_pair_normalized(self):
        s = ngram_set("word", 1, 3, True)
        assert joint_entropy([(s, s)], UNION) == pytest.approx(0.0, abs=1e-15)

    def test_definitional_equality(self, rng):
        pairs = [(random_lingset(rng), random_lingset(rng)) for _ in range(8)]
        joined = [join(a, b, "union", 1, 3, True) for a, b in pairs]
        assert joint_entropy(pairs, UNION) == entropy(joined, UNION)

    def test_concat_joint_sets_superset_of_union(self, rng):
        for _ in range(25):
            a, b = random_lingset(rng), random_lingset(rng)
            assert join(a, b, "concat", 1, 3, True).grams >= join(a, b, "union", 1, 3, True).grams


class TestConditionalEntropy:
    def test_self_conditioning_is_zero(self):
        s = ngram_set("home", 1, 3, True)
        pairs = [(s, s)] * 4
        assert conditional_entropy(pairs, UNION) == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_exact(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 15))
            pairs = [(random_lingset(rng), random_lingset(rng)) for _ in range(n)]
            conds = [c for c, _ in pairs]
            lhs = entropy(conds, UNION) + conditional_entropy(pairs, UNION)
            assert lhs == pytest.approx(joint_entropy(pairs, UNION), abs=1e-12)

    def test_raw_mode_can_go_negative(self):
        # Identical conditions concentrate raw mass; far-apart targets spread
        # the joint mass, and raw "entropy" grows with concentration.
        cond = ngram_set("aaaa", 1, 3, True)
        targets = [ngram_set(t, 1, 3, True) for t in ("bcdefghi", "jklmnopq", "rstuvwxy")]
        pairs = [(cond, t) for t in targets]
        assert conditional_entropy(pairs, RAW) < 0.0


class TestMutualInformation:
    def test_self_mi_equals_entropy(self, rng):
        values = [random_lingset(rng) for _ in range(10)]
        pairs = [(v, v) for v in values]
        assert mutual_information(pairs, UNION) == pytest.approx(
            entropy(values, UNION), abs=1e-12
        )

    def test_union_symmetry_exact(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 12))
            pairs = [(random_lingset(rng), random_lingset(rng)) for _ in range(n)]
            flipped = [(b, a) for a, b in pairs]
            delta = mutual_information(pairs, UNION) - mutual_information(flipped, UNION)
            assert abs(delta) <= 1e-12

    def test_concat_asymmetry_measured_not_asserted_zero(self, rng):
        # Seam grams differ between the two join orders; the gap stays finite
        # and small but need not vanish.
        deltas = []
        for _ in range(10):
            pairs = [(random_lingset(rng, 20), random_lingset(rng, 20)) for _ in range(6)]
            flipped = [(b, a) for a, b in pairs]
            deltas.append(
                abs(mutual_information(pairs, CONCAT) - mutual_information(flipped, CONCAT))
            )
        assert all(np.isfinite(d) for d in deltas)
        assert max(deltas) < 1.0

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            mutual_information([], UNION)


class TestTripletLikelihood:
    def test_identical_triplets_reach_peak(self):
        t = triplet("the cat", "sat", "on the mat")
        for cfg in (UNION, CONCAT, RAW):
            assert triplet_likelihood(t, [t] * 5, cfg) == pytest.approx(PEAK, abs=1e-13)

    def test_telescopes_to_direct_joint_capacity(self, rng):
        for cfg in (UNION, CONCAT):
            for _ in range(10):
                n = int(rng.integers(2, 9))
                triplets = random_triplets(rng, n)
                i = int(rng.integers(n))
                factored = triplet_likelihood(triplets[i], triplets, cfg)
                xs, ys, zs = ([getattr(t, c) for t in triplets] for c in "xyz")
                xyz = joined(joined(xs, ys, cfg), zs, cfg)
                direct = capacity(xyz[i], xyz, cfg)
                assert factored == pytest.approx(direct, rel=1e-12)

    def test_degenerate_denominator_reported(self):
        # A target far from the whole sample underflows P(X) once the
        # bandwidth is small enough; the error must surface, not hide.
        sample = [triplet("aaaa aaaa", "aaa", "aaaa aaaa")] * 3
        target = triplet(
            "bcdefghijklmnopqrstuvwxyz bcdefghijklm", "bcd", "bcdefghijklmnop"
        )
        tiny = EstimatorConfig(bandwidth=0.25)
        with pytest.raises(DegenerateDenominator):
            triplet_likelihood(target, sample, tiny)

    def test_empty_sample(self):
        t = triplet("a", "b", "c")
        with pytest.raises(EmptySample):
            triplet_likelihood(t, [], UNION)


class TestComputeMiRecord:
    def test_components_recompute_identically(self, rng):
        triplets = random_triplets(rng, 9)
        xs = [t.x for t in triplets]
        ys = [t.y for t in triplets]
        zs = [t.z for t in triplets]
        for cfg in (UNION, CONCAT, RAW):
            rec = compute_mi_record(3, triplets, cfg)
            assert rec.k == 3
            assert rec.sample_size == 9
            assert rec.i_xy == mutual_information(list(zip(xs, ys)), cfg)
            assert rec.i_yz == mutual_information(list(zip(ys, zs)), cfg)
            assert rec.i_xz == mutual_information(list(zip(xs, zs)), cfg)
            assert rec.i_xy_z == mutual_information(list(zip(joined(xs, ys, cfg), zs)), cfg)
            assert rec.i_xz_y == mutual_information(list(zip(joined(xs, zs, cfg), ys)), cfg)
            assert rec.h_x == entropy(xs, cfg)
            assert rec.h_y == entropy(ys, cfg)
            assert rec.h_z == entropy(zs, cfg)

    @pytest.mark.parametrize("cfg", [UNION, CONCAT, RAW], ids=["union", "concat", "raw"])
    def test_matches_scalar_oracle(self, rng, cfg):
        triplets = random_triplets(rng, 10)
        triplets += triplets[:3]  # duplicated realizations count separately
        xs = [t.x for t in triplets]
        ys = [t.y for t in triplets]
        zs = [t.z for t in triplets]
        xy, yz, xz = joined(xs, ys, cfg), joined(ys, zs, cfg), joined(xs, zs, cfg)
        h = {
            name: oracle_entropy(sets, cfg)
            for name, sets in [
                ("x", xs), ("y", ys), ("z", zs), ("xy", xy), ("yz", yz), ("xz", xz),
                ("xy_z", joined(xy, zs, cfg)), ("xz_y", joined(xz, ys, cfg)),
            ]
        }
        expected = {
            "i_xy": h["x"] + h["y"] - h["xy"],
            "i_yz": h["y"] + h["z"] - h["yz"],
            "i_xz": h["x"] + h["z"] - h["xz"],
            "i_xy_z": h["xy"] + h["z"] - h["xy_z"],
            "i_xz_y": h["xz"] + h["y"] - h["xz_y"],
            "h_x": h["x"],
            "h_y": h["y"],
            "h_z": h["z"],
        }
        rec = compute_mi_record(1, triplets, cfg)
        for name, want in expected.items():
            assert getattr(rec, name) == pytest.approx(want, rel=1e-12), name

    def test_constant_z_with_disjoint_grams(self, rng):
        # With z constant and its grams disjoint from every x/y gram, the
        # joined collection has exactly the x+y geometry, so the MI equals
        # the multiset entropy of the constant column.
        alphabet_x = "abcdef"
        alphabet_y = "ghijkl"
        triplets = [
            triplet(
                "".join(rng.choice(list(alphabet_x), size=8)),
                "".join(rng.choice(list(alphabet_y), size=8)),
                "zzzz",
            )
            for _ in range(7)
        ]
        rec = compute_mi_record(1, triplets, UNION)
        assert rec.h_z == pytest.approx(math.log(len(triplets)), abs=1e-12)
        assert rec.i_xy_z == pytest.approx(rec.h_z, abs=1e-12)

    def test_identical_components_reduce_to_self_mi(self, rng):
        values = [random_lingset(rng) for _ in range(8)]
        triplets = [Triplet(x=v, y=v, z=v) for v in values]
        assert compute_mi_record(1, triplets, UNION).i_xy_z == pytest.approx(
            entropy(values, UNION), abs=1e-12
        )

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            compute_mi_record(1, [], UNION)


# Segments of 1-6 letters from a small alphabet, so that members repeat and
# some segments are shorter than the seam window's n_max - 1 characters.
segments = st.text(alphabet="ab c", min_size=1, max_size=6).map(lambda s: s.strip() or "a")


# Sets of n_max = 4 with spaces that concat configs of other settings once
# joined from their grams and seam windows, 3.6% away from ``join``'s i_xy.
WIDE = [("on sat", "mat a", "the dog"), ("a", "ran", "sat"), ("sat the", "dog", "cat"), ("on", "sat mat", "on")]


class TestStepCapacities:
    """The step and pair estimators against ``entropy`` of ``join``-built families."""

    @staticmethod
    def assert_equals_join_built(triplets: list[Triplet], cfg: EstimatorConfig) -> None:
        xs = [t.x for t in triplets]
        ys = [t.y for t in triplets]
        zs = [t.z for t in triplets]
        xy, yz, xz = joined(xs, ys, cfg), joined(ys, zs, cfg), joined(xs, zs, cfg)
        families = [xs, ys, zs, xy, yz, xz, joined(xy, zs, cfg), joined(xz, ys, cfg)]
        got = step_capacities(tuple(triplets), cfg)
        assert len(got) == len(families)
        for vector, family in zip(got, families):
            assert np.array_equal(vector, capacity_vector(family, cfg))

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.tuples(segments, segments, segments), min_size=1, max_size=8),
        st.lists(st.tuples(segments, segments, segments), min_size=1, max_size=8),
        st.sampled_from([(1, 1), (1, 3), (2, 4), (3, 3), (1, 2), (2, 2)]),
        st.sampled_from(["union", "concat"]),
        st.booleans(),
    )
    @example([("a", "b", "c")], [("a", "b", "c")], (1, 1), "concat", True)
    @example([("ab", "a", "ab"), ("ab", "a", "ab")], [("a b", "ab", "b")], (2, 4), "concat", True)
    @example([("ab", "cd", "ef")], [("ab", "cd", "ef")], (1, 3), "concat", True)  # xy+z window = yz window
    def test_equals_join_built_families(self, texts, more_texts, lengths, mode, include_space):
        # Three ways a step's sets are built: by one index shared by two steps
        # (the second step meets memoized pieces and windows), by plain
        # ngram_set, and a mix of the two in either order.
        n_min, n_max = lengths
        cfg = EstimatorConfig(
            joint_mode=mode, n_min=n_min, n_max=n_max, include_space=include_space
        )
        index = built_by(cfg.gram_index())

        def plain(text: str) -> LingSet:
            return ngram_set(text, n_min, n_max, include_space)

        def build(step_texts, *builders) -> list[Triplet]:
            triplets = [
                Triplet(*(builders[(i + j) % len(builders)](text) for j, text in enumerate(t)))
                for i, t in enumerate(step_texts)
            ]
            return triplets + triplets[:2]  # repeated members

        for step_texts in (texts, more_texts):
            self.assert_equals_join_built(build(step_texts, index), cfg)
        self.assert_equals_join_built(build(texts, plain), cfg)
        self.assert_equals_join_built(build(texts, index, plain), cfg)
        self.assert_equals_join_built(build(more_texts, plain, index), cfg)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.tuples(segments, segments, segments), min_size=1, max_size=6),
        st.lists(st.integers(0, 3), min_size=1, max_size=5),
        st.sampled_from([(1, 1), (1, 3), (2, 4), (1, 2)]),
        st.sampled_from([(1, 4, True), (2, 2, False), (1, 3, True)]),
        st.sampled_from(["union", "concat"]),
        st.booleans(),
    )
    @example(WIDE, [3], (1, 3), (1, 4, True), "concat", True)
    @example(WIDE, [3], (1, 4), (1, 4, True), "concat", False)
    @example(WIDE, [2, 0, 1], (1, 3), (1, 4, True), "concat", True)
    def test_estimators_equal_entropy_of_join_built_families(
        self, texts, picks, lengths, other, mode, include_space
    ):
        # Each set is built by the config's index, by plain ngram_set, or by
        # an index or ngram_set of other n-gram settings, in any mix.  A
        # concat join reads the sources, as ``join`` does, whatever built
        # the sets; a set's own grams count only as a marginal.
        n_min, n_max = lengths
        cfg = EstimatorConfig(joint_mode=mode, n_min=n_min, n_max=n_max, include_space=include_space)
        builders = [
            built_by(cfg.gram_index()),
            lambda text: ngram_set(text, n_min, n_max, include_space),
            built_by(GramIndex(*other)),
            lambda text: ngram_set(text, *other),
        ]
        triplets = [
            Triplet(*(builders[picks[(3 * i + j) % len(picks)]](text) for j, text in enumerate(t)))
            for i, t in enumerate(texts)
        ]
        triplets += triplets[:2]  # repeated members
        xs, ys, zs = ([getattr(t, c) for t in triplets] for c in "xyz")
        xy, yz, xz = joined(xs, ys, cfg), joined(ys, zs, cfg), joined(xs, zs, cfg)
        h_x, h_y, h_z, h_xy, h_yz, h_xz, h_xy_z, h_xz_y = (
            entropy(family, cfg) for family in (xs, ys, zs, xy, yz, xz, joined(xy, zs, cfg), joined(xz, ys, cfg))
        )
        pairs = list(zip(xs, ys))
        assert joint_entropy(pairs, cfg) == h_xy
        assert conditional_entropy(pairs, cfg) == h_xy - h_x
        assert mutual_information(pairs, cfg) == h_x + h_y - h_xy
        assert compute_mi_record(1, triplets, cfg) == MiRecord(
            k=1,
            i_xy=h_x + h_y - h_xy,
            i_yz=h_y + h_z - h_yz,
            i_xz=h_x + h_z - h_xz,
            i_xy_z=h_xy + h_z - h_xy_z,
            i_xz_y=h_xz + h_y - h_xz_y,
            h_x=h_x,
            h_y=h_y,
            h_z=h_z,
            sample_size=len(triplets),
        )

    @staticmethod
    def passes(monkeypatch) -> list[int]:
        """From here on, the number of samples of every ``_capacities`` call."""
        calls = []
        capacities = density._capacities
        monkeypatch.setattr(density, "_capacities", lambda samples, cfg: calls.append(len(samples)) or capacities(samples, cfg))
        return calls

    @pytest.mark.parametrize(
        "cfg,distinct",
        [(UNION, [2, 3, 4, 6, 12, 4, 12]), (CONCAT, [2, 3, 4, 6, 12, 4, 12, 12])],
        ids=["union", "concat"],
    )
    def test_record_then_monitor_runs_one_pass(self, monkeypatch, cfg, distinct):
        # Member i is (xs[i % 2], ys[i % 3], zs[i % 4]), so of the 12 members
        # x has 2 distinct, y 3, z 4, xy 6, yz 12, xz 4 and xy+z (xz+y) 12.
        shapes = []
        row_distances = density._row_distances

        def spy(m, scratch):
            d = row_distances(m, scratch)
            shapes.append(d.shape)
            return d

        monkeypatch.setattr(density, "_row_distances", spy)
        xs = ["the cat", "a dog"]
        ys = ["sat on", "ran to", "slept by"]
        zs = ["the mat", "a door", "the sea", "my bed"]
        triplets = tuple(triplet(xs[i % 2], ys[i % 3], zs[i % 4], cfg) for i in range(12))
        passes = self.passes(monkeypatch)
        compute_mi_record(1, triplets, cfg)
        joint_mass_monitor(triplets, cfg)
        assert passes == [3]  # one pass over x, y and z serves both calls
        # One Gram product per distinct family, over its distinct members only.
        assert shapes == [(u, u) for u in distinct]

    @pytest.mark.parametrize("cfg", [UNION, CONCAT], ids=["union", "concat"])
    def test_step_equals_record_and_monitor(self, rng, cfg):
        triplets = tuple(random_triplets(rng, 8))
        record, *counts = density.step(4, triplets, cfg)
        fresh = tuple(list(triplets))  # another tuple, so neither call is served by the other
        assert record == compute_mi_record(4, fresh, cfg)
        assert tuple(counts) == joint_mass_monitor(triplets, cfg)

    def test_monitor_takes_the_counts_of_the_same_tuple_and_an_equal_config(self, monkeypatch, rng):
        triplets = tuple(random_triplets(rng, 6))
        expected = density.step(1, triplets, UNION)[1:]
        passes = self.passes(monkeypatch)
        compute_mi_record(1, triplets, UNION)
        assert joint_mass_monitor(triplets, EstimatorConfig()) == expected
        assert len(passes) == 1
        copy = tuple(list(triplets))  # equal members, another tuple: a second pass
        compute_mi_record(1, triplets, UNION)
        assert joint_mass_monitor(copy, UNION) == expected
        assert len(passes) == 3

    def test_monitor_lets_go_of_the_step(self):
        # Once the monitor has taken the counts, nothing in density keeps
        # the step's triplets, so only reference counts need to free them.
        triplets = tuple(triplet(*texts) for texts in [("the cat", "sat on", "the mat"), ("a dog", "ran", "by")])
        member = weakref.ref(triplets[0])
        with collector_disabled():
            compute_mi_record(1, triplets, UNION)
            joint_mass_monitor(triplets, UNION)
            del triplets
            assert member() is None

    @staticmethod
    def scans(monkeypatch) -> list[str]:
        """The text of every piece and window that an index scans from here on."""
        calls = []
        scan = GramIndex._lookup

        def spy(self, texts):
            calls.extend(dict.fromkeys(t for t in texts if t not in self._parts))
            return scan(self, texts)

        monkeypatch.setattr(GramIndex, "_lookup", spy)
        return calls

    @staticmethod
    def windows(monkeypatch) -> list[set[str]]:
        """From here on, the text of every window each step looks up; call ``append`` before each step."""
        steps: list[set[str]] = []
        find = GramIndex.window_parts

        def spy(self, tails, heads):
            steps[-1].update(self._window_keys(tails, heads))
            return find(self, tails, heads)

        monkeypatch.setattr(GramIndex, "window_parts", spy)
        return steps

    def test_copies_of_one_triplet_scan_each_text_once(self, monkeypatch):
        # Twelve copies of one triplet, as two steps of one index and as a
        # step of plain sets, whose sources the step builds once each.
        texts = ("the cat", "sat on", "the mat")
        index = CONCAT.gram_index()
        calls = self.scans(monkeypatch)
        copies = [Triplet(*index.segments(texts))] * 12
        steps = self.windows(monkeypatch)
        for _ in range(2):
            steps.append(set())
            step_capacities(tuple(copies), CONCAT)
        assert steps[0] and steps[0] == steps[1]  # windows recur across steps
        assert calls and max(Counter(calls).values()) == 1  # every scanned text is scanned once
        calls.clear()
        steps.append(set())
        step_capacities(tuple([triplet(*texts, CONCAT)] * 12), CONCAT)
        assert steps[2] and calls and max(Counter(calls).values()) == 1

    def test_seam_grams_run_once_per_distinct_window(self, monkeypatch):
        # One index builds a run's sets and serves two of its steps.  Every
        # piece and every window, inside a segment or between two, is scanned
        # exactly once, including the windows the two steps share.
        calls = self.scans(monkeypatch)
        docs, _ = synth_corpus(300, np.random.default_rng(3))
        samples = list(build_step_samples(
            "random", docs.token_lists, k_max=2, per_step=40, rng=np.random.default_rng(4),
            context_length=10, gram_set=CONCAT.gram_index(),
        ))
        steps = self.windows(monkeypatch)
        for sample in samples:
            steps.append(set())
            step_capacities(sample.triplets, CONCAT)
        assert steps[0] and steps[1] and steps[0] & steps[1]  # windows recur across steps
        assert max(Counter(calls).values()) == 1  # every scanned text is scanned once

    def test_a_step_finds_its_windows_in_one_batch(self, monkeypatch):
        index = CONCAT.gram_index()
        texts = [("the cat", "sat on", "the mat"), ("a dog", "ran to", "a door")] * 3
        triplets = tuple(Triplet(*index.segments(t)) for t in texts)
        batches, lookups = [], []
        find, scan = GramIndex.window_parts, GramIndex._lookup
        monkeypatch.setattr(GramIndex, "window_parts", lambda self, t, h: batches.append(len(t)) or find(self, t, h))
        monkeypatch.setattr(GramIndex, "_lookup", lambda self, t: lookups.append(t) or scan(self, t))
        step_capacities(triplets, CONCAT)
        assert batches == [5 * len(triplets)]  # xy, yz, xz, xy+z and xz+y
        assert len(lookups) == 1 and all(" " in key for key in lookups[0])  # one lookup, of windows alone

    def test_monitor_of_another_step_runs_its_own_pass(self, monkeypatch, rng):
        a, b = tuple(random_triplets(rng, 6)), tuple(random_triplets(rng, 6))
        expected = {cfg: (density.step(1, a, cfg)[1:], density.step(1, b, cfg)[1:]) for cfg in (UNION, CONCAT)}
        passes = self.passes(monkeypatch)
        compute_mi_record(1, a, UNION)
        assert joint_mass_monitor(b, UNION) == expected[UNION][1]  # another tuple
        compute_mi_record(1, a, UNION)
        assert joint_mass_monitor(a, CONCAT) == expected[CONCAT][0]  # another config
        assert joint_mass_monitor(a, UNION) == expected[UNION][0]  # counts already taken
        assert len(passes) == 5


class TestRowKeys:
    """Sets the run's index built are told apart by identity, others by their grams."""

    @pytest.mark.parametrize("cfg", [UNION, CONCAT], ids=["union", "concat"])
    def test_equal_gram_sets_of_two_texts_match_the_grams_keyed_path(self, cfg):
        # "aaa" and "aaaa" are two texts with one gram set under n_max = 3.
        # The index's sets of them get two equal rows; plain sets, keyed by
        # their grams in another index, share one.  The capacities must not
        # tell the difference.
        texts = [("aaa", "b c", "dd"), ("aaaa", "b c", "dd"), ("aaa", "c", "e f"), ("b", "aaaa", "c d")]
        index = cfg.gram_index()
        built: dict[str, LingSet] = {}
        by_identity = tuple(Triplet(*(built.setdefault(t, built_by(index)(t)) for t in texts_)) for texts_ in texts)
        by_grams = tuple(triplet(*texts_, cfg) for texts_ in texts)
        assert ngram_set("aaa", 1, 3, True).grams == ngram_set("aaaa", 1, 3, True).grams
        identity_rows, _, _ = density._set_rows([[t.x for t in by_identity]], None, index, Scratch())
        grams_rows, _, _ = density._set_rows([[t.x for t in by_grams]], None, cfg.gram_index(), Scratch())
        assert (len(identity_rows), len(grams_rows)) == (3, 2)
        for got, want in zip(step_capacities(by_identity, cfg), step_capacities(by_grams, cfg)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("cfg", [UNION, CONCAT], ids=["union", "concat"])
    def test_step_derives_no_gram_string(self, monkeypatch, cfg):
        derived = []
        grams_of = GramIndex.grams_of
        monkeypatch.setattr(GramIndex, "grams_of", lambda self, ids: derived.append(ids) or grams_of(self, ids))
        docs, gold = synth_corpus(300, np.random.default_rng(3))
        index = cfg.gram_index()
        samples = [
            *build_step_samples("random", docs.token_lists, 2, 40, np.random.default_rng(4), 10, index),
            *build_step_samples("gold_file", gold, 1, 40, np.random.default_rng(5), 10, index),
        ]
        for sample in samples:
            compute_mi_record(sample.k, sample.triplets, cfg)
            joint_mass_monitor(sample.triplets, cfg)
        assert derived == []
        # Read afterwards, the grams are those of the texts.
        t = samples[0].triplets[0]
        assert t.x.grams == ngram_set(t.x.source, cfg.n_min, cfg.n_max, cfg.include_space).grams
        assert derived

    def test_sets_without_an_index_are_numbered_by_a_new_one(self, monkeypatch):
        made = []
        gram_index = EstimatorConfig.gram_index
        monkeypatch.setattr(EstimatorConfig, "gram_index", lambda est: made.append(gram_index(est)) or made[-1])
        sets = [ngram_set(t, 1, 3, True) for t in ("the cat", "a dog", "the cat", "cats")]
        texts = [("the cat", "sat", "on it"), ("a dog", "sat", "by it")] * 2
        for cfg in (UNION, CONCAT):
            made.clear()
            assert entropy(sets, cfg) == pytest.approx(oracle_entropy(sets, cfg), rel=1e-12)
            assert len(made) == 1 and set(made[0].vocab) == frozenset().union(*(s.grams for s in sets))
            triplets = tuple(triplet(*t, cfg) for t in texts)
            xs, ys, zs = ([getattr(t, c) for t in triplets] for c in "xyz")
            xy, xz = joined(xs, ys, cfg), joined(xs, zs, cfg)
            families = [xs, ys, zs, xy, joined(ys, zs, cfg), xz, joined(xy, zs, cfg), joined(xz, ys, cfg)]
            got = step_capacities(triplets, cfg)
            assert len(made) == 2 and made[1].scratch is not None
            for vector, family in zip(got, families, strict=True):
                h = density._entropy_from_masses(vector, cfg.entropy_mode)
                assert h == pytest.approx(oracle_entropy(family, cfg), rel=1e-12)


def full_matrix_capacities(family: list[LingSet], bandwidth: float) -> np.ndarray:
    """Row means of the full n x n matrix of per-pair ``kernel`` values."""
    return np.array([[kernel(a, b, bandwidth) for b in family] for a in family]).mean(axis=1)


class TestDistinctRows:
    """Capacities from distinct rows and a kernel table against the full n x n matrix."""

    @settings(deadline=None, max_examples=80)
    @given(
        pool=st.lists(
            st.tuples(*[st.one_of(segments, st.just("  "))] * 3), min_size=1, max_size=4
        ),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=24),
        lengths=st.sampled_from([(1, 1), (1, 3), (2, 4)]),
        mode=st.sampled_from(["union", "concat"]),
        include_space=st.booleans(),
        bandwidth=st.sampled_from([0.7, 5.0]),
    )
    @example([("a", "b", "c")], [0], (1, 3), "union", True, 5.0)  # n = 1
    @example([("ab c", "b", "c a")], [0] * 9, (1, 3), "concat", True, 5.0)  # all rows identical
    @example([("  ", "  ", "a"), ("a", "  ", "  ")], [0, 1, 0], (1, 3), "concat", False, 5.0)
    def test_equals_full_matrix_row_means(
        self, pool, picks, lengths, mode, include_space, bandwidth
    ):
        # Members are drawn from at most 4 triples, so most of them repeat.
        # A text of spaces alone has no grams without include_space; with it,
        # such a text has no source that ``join`` and the step agree on, so
        # it stands in for a letter there.
        n_min, n_max = lengths
        cfg = EstimatorConfig(
            bandwidth=bandwidth, joint_mode=mode, n_min=n_min, n_max=n_max,
            include_space=include_space,
        )
        index = cfg.gram_index()

        def build(text: str) -> LingSet:
            return built_by(index)(text if not include_space or text.strip() else "a")

        triples = [Triplet(*map(build, t)) for t in pool]
        triplets = tuple(triples[i % len(triples)] for i in picks)
        xs, ys, zs = ([getattr(t, c) for t in triplets] for c in "xyz")
        xy, xz = joined(xs, ys, cfg), joined(xs, zs, cfg)
        families = [xs, ys, zs, xy, joined(ys, zs, cfg), xz, joined(xy, zs, cfg), joined(xz, ys, cfg)]
        got = step_capacities(triplets, cfg)
        for vector, family in zip(got, families, strict=True):
            want = full_matrix_capacities(family, bandwidth)
            assert np.array_equal(vector, want)
            assert np.array_equal(capacity_vector(family, cfg), want)

    @pytest.mark.parametrize("bandwidth", [0.7, 5.0, 40.0])
    def test_kernel_table_equals_elementwise_kernel(self, bandwidth):
        # Every distance 0 .. 2 * bound, bound = 1000 grams a row, against the
        # public kernel to the bit: h grams against no grams are at distance h.
        bound = 1000
        size = 1 << (2 * bound).bit_length()
        table = density._kernel_table(bandwidth, size)
        assert len(table) > 2 * bound and not table.flags.writeable
        grams, empty = [f"g{i}" for i in range(size)], LingSet(grams=frozenset(), source="")
        want = [kernel(LingSet(grams=frozenset(grams[:h]), source=""), empty, bandwidth) for h in range(size)]
        assert table.tolist() == want
        for h in (0, 1, 5, 2 * bound):
            assert table[h] == pytest.approx(gauss(h, bandwidth), rel=1e-15, abs=0)


def test_large_union_step_memory_stays_within_its_documented_terms():
    # One random-agent union step of per_step = 800.  With n = per_step and
    # V = the step's distinct grams, the step holds at most 3n distinct
    # boolean rows and the 7 families' gathered rows (10 n V bytes), one
    # family's float32 copy (4 n V) and three n x n float64 arrays at a time
    # (24 n^2), plus 1 MB for its id arrays, n-vectors and Python objects.
    docs, _ = synth_corpus(2000, np.random.default_rng(5))
    (sample,) = build_step_samples(
        "random", docs.token_lists, k_max=1, per_step=800, rng=np.random.default_rng(9),
        context_length=10, gram_set=UNION.gram_index(),
    )
    triplets = sample.triplets
    n = len(triplets)
    v = len(frozenset().union(*(s.grams for t in triplets for s in (t.x, t.y, t.z))))
    bound = 10 * n * v + 4 * n * v + 24 * n * n + 2**20
    # A new index holds no scratch yet, so the peak counts every buffer the step makes.
    assert triplets[0].x.index.scratch is None
    tracemalloc.start()
    try:
        step_capacities(triplets, UNION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


class TestScratch:
    """Buffers kept across steps: exact views, kept on the index, never returned."""

    shared = Scratch()  # one for all examples of the hypothesis test below

    def test_take_gives_exact_views_and_regrows_by_half_the_request(self):
        scratch = Scratch()
        a = scratch.take("r", (2, 5), np.float64)
        buffer = scratch.buffers["r"]
        assert a.shape == (2, 5) and a.dtype == np.float64 and buffer.nbytes == 120
        assert a.flags.c_contiguous and a.flags.writeable and a.base is buffer
        b = scratch.take("r", (3, 5), np.int32)  # 60 bytes fit
        c = scratch.take("r", (15,), np.float64)  # 120 bytes fit
        assert scratch.buffers["r"] is buffer and b.base is buffer and c.base is buffer
        d = scratch.take("r", (16,), np.float64)  # 128 bytes do not: 192 are made
        assert scratch.buffers["r"] is not buffer and scratch.buffers["r"].nbytes == 192
        assert d.base is scratch.buffers["r"]
        assert scratch.take("empty", (0, 7), bool).shape == (0, 7)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(st.integers(0, 40), max_size=12).map(lambda ids: np.array(ids, dtype=np.int32)),
            min_size=1,
            max_size=10,
        )
    )
    @example([np.zeros(0, dtype=np.int32)])
    @example([np.zeros(0, dtype=np.int32), np.array([3, 3, 1], dtype=np.int32), np.zeros(0, dtype=np.int32)])
    def test_reused_scratch_builds_rows_and_distances_as_new_arrays(self, ids):
        # One scratch across all examples, so every call meets the garbage of
        # the last; empty rows may lead, trail or repeat.
        scratch = self.shared
        columns = sorted(set(np.concatenate(ids).tolist()))
        expected = np.zeros((len(ids), len(columns)), dtype=bool)
        for row, i in enumerate(ids):
            expected[row, np.searchsorted(columns, i)] = True
        got = _indicator_rows(ids, np.array([len(i) for i in ids]), scratch)
        assert np.array_equal(got, expected)
        assert np.array_equal(_row_distances(got, scratch), _row_distances(expected, Scratch()))

    @staticmethod
    def steps(index: GramIndex, per_step: int = 40) -> dict[str, tuple[Triplet, ...]]:
        docs, gold = synth_corpus(400, np.random.default_rng(5))
        return {
            label: next(build_step_samples(
                kind, source, k_max=1, per_step=per_step, rng=np.random.default_rng(9),
                context_length=10, gram_set=index,
            )).triplets
            for label, kind, source in [("random", "random", docs.token_lists), ("pool", "gold_file", gold)]
        }

    @staticmethod
    def buffers(index: GramIndex) -> dict[str, np.ndarray]:
        return dict(index.scratch.buffers)

    @pytest.mark.parametrize("cfg", [UNION, CONCAT], ids=["union", "concat"])
    def test_vectors_never_share_memory_with_the_scratch(self, cfg):
        index = cfg.gram_index()
        steps = self.steps(index)
        bigger = self.steps(index, per_step=60)["random"]
        kept = step_capacities(steps["random"], cfg)
        copies = [v.copy() for v in kept]
        # Another shape, entropies through the same scratch and through a
        # call's own, and a step that regrows the buffers.
        step_capacities(steps["pool"], cfg)
        xs = [t.x for t in steps["pool"]]
        entropy(xs, cfg)
        mutual_information([(t.x, t.y) for t in steps["random"]], cfg)
        plain = [ngram_set(t.x.source, cfg.n_min, cfg.n_max, cfg.include_space) for t in steps["pool"]]
        assert entropy(plain, cfg) == entropy(xs, cfg)
        before = self.buffers(index)
        later = step_capacities(bigger, cfg)
        assert any(self.buffers(index)[role] is not buffer for role, buffer in before.items())
        for got, want in zip(kept, copies, strict=True):
            assert np.array_equal(got, want)
        buffers = [*before.values(), *self.buffers(index).values()]
        for vector in (*kept, *later, capacity_vector(xs, cfg)):
            assert not any(np.shares_memory(vector, buffer) for buffer in buffers)

    @pytest.mark.parametrize("cfg", [UNION, CONCAT], ids=["union", "concat"])
    def test_a_step_that_fits_keeps_every_buffer(self, cfg):
        index = cfg.gram_index()
        steps = self.steps(index)
        first = step_capacities(steps["random"], cfg)
        buffers = self.buffers(index)
        assert set(buffers) == {"rows", "part", "even", "odd"}
        # The same step as another tuple, and a part of it.
        for triplets in (tuple(steps["random"]), steps["random"][:25], steps["random"][5:]):
            step_capacities(triplets, cfg)
            assert self.buffers(index).keys() == buffers.keys()
            assert all(self.buffers(index)[role] is buffer for role, buffer in buffers.items())
        for got, want in zip(step_capacities(tuple(steps["random"]), cfg), first, strict=True):
            assert np.array_equal(got, want)


def pinned_steps() -> dict[str, tuple[Triplet, ...]]:
    """One random-agent step and one pool step of 30 triplets each."""
    docs, gold = synth_corpus(400, np.random.default_rng(5))
    return {
        label: next(build_step_samples(
            kind, source, k_max=1, per_step=30, rng=np.random.default_rng(9),
            context_length=10, gram_set=UNION.gram_index(),
        )).triplets
        for label, kind, source in [("random", "random", docs.token_lists), ("pool", "gold_file", gold)]
    }


class TestJointMassMonitor:
    def test_counts_and_bounds(self, rng):
        triplets = [
            Triplet(random_lingset(rng, 12), random_lingset(rng, 6), random_lingset(rng, 12))
            for _ in range(10)
        ]
        for cfg in (UNION, CONCAT):
            violations, comparisons = joint_mass_monitor(triplets, cfg)
            assert comparisons == 2 * 3 * len(triplets)
            assert 0 <= violations <= comparisons

    # Pinned (violations, comparisons): the monitor's counts must not move
    # when the way its capacity vectors are computed changes.
    @pytest.mark.parametrize(
        "cfg,expected",
        [
            (UNION, {"random": (3, 180), "pool": (2, 180)}),
            (CONCAT, {"random": (2, 180), "pool": (0, 180)}),
        ],
        ids=["union", "concat"],
    )
    def test_counts_pinned(self, cfg, expected):
        steps = pinned_steps()
        assert {label: joint_mass_monitor(t, cfg) for label, t in steps.items()} == expected
