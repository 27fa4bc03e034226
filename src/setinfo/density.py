"""Kernel capacity functional on gram sets and the derived entropy / MI estimators.

The probability that a set-valued variable takes a particular realization is
estimated as the average Gaussian kernel similarity between that realization
and every member of the step sample (resubstitution: a member is compared
against itself too).  Entropies are sums over the sample *multiset*, so
duplicated realizations contribute separately; with ``normalized`` mode the
capacity masses are rescaled onto the probability simplex first, which keeps
every entropy in [0, ln n].  ``raw`` mode uses the capacity masses as-is;
its entropies are not normalized and conditional entropies may come out
negative, which is reported, never clamped.

All logarithms are natural; every quantity is in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .ngrams import LingSet, hamming, join

if TYPE_CHECKING:  # pragma: no cover
    from .agents import StepSample, Triplet


class EmptySample(ValueError):
    """An estimator was handed an empty sample."""


class DegenerateDenominator(ArithmeticError):
    """A conditional factor's denominator capacity underflowed to zero."""


ENTROPY_MODES = ("normalized", "raw")
JOINT_MODES = ("union", "concat")
JOINT_MARGINAL_KINDS = ("XY_vs_Z", "XZ_vs_Y")


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by every estimator in a run.

    ``bandwidth`` controls how strictly two realizations must match before
    they lend each other probability mass.  ``n_min``/``n_max``/``include_space``
    are only consulted when concat-mode joins must re-extract grams.
    """

    bandwidth: float = 5.0
    entropy_mode: str = "normalized"
    joint_mode: str = "union"
    n_min: int = 1
    n_max: int = 3
    include_space: bool = True

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.entropy_mode not in ENTROPY_MODES:
            raise ValueError(f"entropy_mode must be one of {ENTROPY_MODES}")
        if self.joint_mode not in JOINT_MODES:
            raise ValueError(f"joint_mode must be one of {JOINT_MODES}")


@dataclass(frozen=True)
class MiRecord:
    """Per-step measurement: pairwise MIs, joint-marginal MIs, entropies."""

    k: int
    i_xy: float
    i_yz: float
    i_xz: float
    i_xy_z: float
    i_xz_y: float
    h_x: float
    h_y: float
    h_z: float
    sample_size: int


def kernel(a: LingSet, b: LingSet, bandwidth: float = 5.0) -> float:
    """Gaussian kernel of the set distance.

    Maximal, 1/sqrt(2 pi bandwidth^2), exactly when the gram sets coincide;
    strictly decreasing in the distance.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    h = hamming(a, b)
    return math.exp(-(h * h) / (2.0 * bandwidth * bandwidth)) / math.sqrt(
        2.0 * math.pi * bandwidth * bandwidth
    )


def _kernel_from_distances(d: np.ndarray, bandwidth: float) -> np.ndarray:
    return np.exp(-(d * d) / (2.0 * bandwidth * bandwidth)) / math.sqrt(
        2.0 * math.pi * bandwidth * bandwidth
    )


def _distance_matrix(sets: Sequence[LingSet]) -> np.ndarray:
    """Pairwise symmetric-difference counts, via bit-packed gram indicators.

    Distances are exact integers, so this vectorized path agrees with
    per-pair ``hamming`` calls to the last bit.
    """
    grams_list = [s.grams for s in sets]
    vocab: dict[str, int] = {}
    for grams in grams_list:
        for gram in grams:
            if gram not in vocab:
                vocab[gram] = len(vocab)
    n = len(grams_list)
    width = max(1, (len(vocab) + 63) // 64)
    bits = np.zeros((n, width), dtype=np.uint64)
    one = np.uint64(1)
    for i, grams in enumerate(grams_list):
        row = bits[i]
        for gram in grams:
            idx = vocab[gram]
            row[idx >> 6] |= one << np.uint64(idx & 63)
    xor = bits[:, None, :] ^ bits[None, :, :]
    return np.bitwise_count(xor).sum(axis=2, dtype=np.int64).astype(np.float64)


def _capacity_vector(sets: Sequence[LingSet], bandwidth: float) -> np.ndarray:
    """Resubstitution capacity of every member within its own sample."""
    k = _kernel_from_distances(_distance_matrix(sets), bandwidth)
    return k.mean(axis=1)


def capacity(target: LingSet, sample: Sequence[LingSet], cfg: EstimatorConfig) -> float:
    """Mean kernel similarity between ``target`` and every sample member."""
    sample = list(sample)
    if not sample:
        raise EmptySample("capacity needs a non-empty sample")
    d = np.array([hamming(target, s) for s in sample], dtype=np.float64)
    return float(_kernel_from_distances(d, cfg.bandwidth).mean())


def _entropy_from_masses(p: np.ndarray, mode: str) -> float:
    if mode == "normalized":
        q = p / p.sum()
        return float(-(q * np.log(q)).sum())
    return float(-(p * np.log(p)).sum())


def entropy(values: Sequence[LingSet], cfg: EstimatorConfig) -> float:
    """Shannon entropy over the multiset of realizations.

    Duplicates each contribute their own term: a sample of n copies of one
    set has normalized entropy ln n, and a singleton sample has entropy 0.
    """
    values = list(values)
    if not values:
        raise EmptySample("entropy needs a non-empty sample")
    p = _capacity_vector(values, cfg.bandwidth)
    return _entropy_from_masses(p, cfg.entropy_mode)


def _join_pair(a: LingSet, b: LingSet, cfg: EstimatorConfig) -> LingSet:
    return join(a, b, cfg.joint_mode, cfg.n_min, cfg.n_max, cfg.include_space)


def joint_entropy(pairs: Sequence[tuple[LingSet, LingSet]], cfg: EstimatorConfig) -> float:
    """Entropy of the per-pair joined realizations."""
    pairs = list(pairs)
    if not pairs:
        raise EmptySample("joint_entropy needs a non-empty sample")
    return entropy([_join_pair(a, b, cfg) for a, b in pairs], cfg)


def conditional_entropy(
    pairs: Sequence[tuple[LingSet, LingSet]], cfg: EstimatorConfig
) -> float:
    """H(target | cond) for (cond, target) pairs, via the chain rule H(joint) - H(cond)."""
    pairs = list(pairs)
    if not pairs:
        raise EmptySample("conditional_entropy needs a non-empty sample")
    conds = [c for c, _ in pairs]
    return joint_entropy(pairs, cfg) - entropy(conds, cfg)


def mutual_information(
    pairs: Sequence[tuple[LingSet, LingSet]], cfg: EstimatorConfig
) -> float:
    """I(A, B) = H(A) + H(B) - H(A, B) over paired realizations."""
    pairs = list(pairs)
    if not pairs:
        raise EmptySample("mutual_information needs a non-empty sample")
    firsts = [a for a, _ in pairs]
    seconds = [b for _, b in pairs]
    return entropy(firsts, cfg) + entropy(seconds, cfg) - joint_entropy(pairs, cfg)


def joint_marginal_mi(
    triples: Sequence[tuple[LingSet, LingSet, LingSet]],
    which: str,
    cfg: EstimatorConfig,
) -> float:
    """MI between a joined pair variable and the remaining marginal.

    ``XY_vs_Z`` pairs the joined first+second components against the third;
    ``XZ_vs_Y`` pairs the joined first+third components against the second.
    """
    triples = list(triples)
    if not triples:
        raise EmptySample("joint_marginal_mi needs a non-empty sample")
    if which == "XY_vs_Z":
        pairs = [(_join_pair(x, y, cfg), z) for x, y, z in triples]
    elif which == "XZ_vs_Y":
        pairs = [(_join_pair(x, z, cfg), y) for x, y, z in triples]
    else:
        raise ValueError(f"which must be one of {JOINT_MARGINAL_KINDS}, got {which!r}")
    return mutual_information(pairs, cfg)


def _triplet_list(sample: "StepSample | Sequence[Triplet]") -> list["Triplet"]:
    return list(getattr(sample, "triplets", sample))


def triplet_likelihood(
    t: "Triplet", sample: "StepSample | Sequence[Triplet]", cfg: EstimatorConfig
) -> float:
    """Factorized action likelihood P(Y|X,Z) * P(Z|X) * P(X).

    The conditionals are capacity ratios, so the product telescopes to the
    direct three-way joint capacity; the factorized form is kept because it
    is the shape a structure learner would optimize factor by factor.
    """
    triplets = _triplet_list(sample)
    if not triplets:
        raise EmptySample("triplet_likelihood needs a non-empty sample")

    def xz(s: "Triplet") -> LingSet:
        return _join_pair(s.x, s.z, cfg)

    def xyz(s: "Triplet") -> LingSet:
        return _join_pair(_join_pair(s.x, s.y, cfg), s.z, cfg)

    p_x = capacity(t.x, [s.x for s in triplets], cfg)
    p_xz = capacity(xz(t), [xz(s) for s in triplets], cfg)
    p_xyz = capacity(xyz(t), [xyz(s) for s in triplets], cfg)
    if p_x == 0.0 or p_xz == 0.0:
        raise DegenerateDenominator(
            f"conditional factor denominator underflowed (P(X)={p_x}, P(X,Z)={p_xz})"
        )
    p_y_given_xz = p_xyz / p_xz
    p_z_given_x = p_xz / p_x
    return p_y_given_xz * p_z_given_x * p_x


def compute_mi_record(
    k: int, triplets: Sequence["Triplet"], cfg: EstimatorConfig
) -> MiRecord:
    """All five MI quantities plus marginal entropies for one step sample."""
    triplets = list(triplets)
    if not triplets:
        raise EmptySample("a step sample must contain at least one triplet")
    xs = [t.x for t in triplets]
    ys = [t.y for t in triplets]
    zs = [t.z for t in triplets]
    sets3 = list(zip(xs, ys, zs))
    return MiRecord(
        k=k,
        i_xy=mutual_information(list(zip(xs, ys)), cfg),
        i_yz=mutual_information(list(zip(ys, zs)), cfg),
        i_xz=mutual_information(list(zip(xs, zs)), cfg),
        i_xy_z=joint_marginal_mi(sets3, "XY_vs_Z", cfg),
        i_xz_y=joint_marginal_mi(sets3, "XZ_vs_Y", cfg),
        h_x=entropy(xs, cfg),
        h_y=entropy(ys, cfg),
        h_z=entropy(zs, cfg),
        sample_size=len(triplets),
    )


def joint_mass_monitor(
    triplets: Sequence["Triplet"], cfg: EstimatorConfig
) -> tuple[int, int]:
    """Count joint realizations whose capacity exceeds a marginal's capacity.

    For each pairwise family (x,y), (y,z), (x,z) and each sample member,
    P(joint) is compared against both component marginals.  Joint mass
    exceeding marginal mass would contradict the monotonicity expected of
    a probability on sets; the violation fraction is reported per run, not
    asserted.
    """
    triplets = list(triplets)
    if not triplets:
        raise EmptySample("joint_mass_monitor needs a non-empty sample")
    xs = [t.x for t in triplets]
    ys = [t.y for t in triplets]
    zs = [t.z for t in triplets]
    marg: dict[int, np.ndarray] = {}
    for key, sets in enumerate((xs, ys, zs)):
        marg[key] = _capacity_vector(sets, cfg.bandwidth)
    violations = 0
    comparisons = 0
    for ia, ib, a_sets, b_sets in ((0, 1, xs, ys), (1, 2, ys, zs), (0, 2, xs, zs)):
        joints = [_join_pair(a, b, cfg) for a, b in zip(a_sets, b_sets)]
        pj = _capacity_vector(joints, cfg.bandwidth)
        violations += int((pj > marg[ia]).sum()) + int((pj > marg[ib]).sum())
        comparisons += 2 * len(triplets)
    return violations, comparisons
