"""The estimator's invariants, one function per invariant family.

Each function draws its own random instances from the generator it is
handed and returns one ``Check`` per sub-check.  ``run_checks`` runs them
small for ``setinfo check``; the acceptance suite runs the same functions
at full size (criteria 1-4 and 9).  Tolerances are written only here.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

from .agents import Triplet
from .density import (
    EstimatorConfig,
    MiRecord,
    _join_pair,
    capacity,
    conditional_entropy,
    entropy,
    joint_entropy,
    kernel,
    mutual_information,
    triplet_likelihood,
)
from .ngrams import LingSet, hamming, ngram_set
from .reward import demarcken_check, reward

ALPHABET = string.ascii_lowercase + " "
CFG = EstimatorConfig()  # bandwidth 5.0, normalized entropy, union joins
IDENTITY_TOL = 1e-12
KERNEL_PEAK = 1.0 / math.sqrt(2.0 * math.pi * CFG.bandwidth**2)


@dataclass(frozen=True)
class Check:
    """One sub-check's outcome over a batch of random instances.

    ``worst`` is the largest deviation seen, for checks held to a tolerance;
    ``seen`` says what the batch covered, where that is not just its size.
    """

    name: str
    rule: str
    instances: int
    violations: int
    worst: float | None = None
    seen: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        facts = [f"{self.instances} instances", f"{self.violations} violations"]
        if self.worst is not None:
            facts.append(f"worst {self.worst:.2e}")
        if self.seen:
            facts.append(self.seen)
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.rule} ({', '.join(facts)})"


def random_lingset(rng: np.random.Generator, max_len: int = 40) -> LingSet:
    """``CFG``'s gram set of a random lowercase text of 1..max_len characters."""
    length = int(rng.integers(1, max_len + 1))
    text = "".join(ALPHABET[int(i)] for i in rng.integers(len(ALPHABET), size=length))
    return ngram_set(text.strip() or "a", CFG.n_min, CFG.n_max, CFG.include_space)


def _random_sample(rng: np.random.Generator) -> list[LingSet]:
    return [random_lingset(rng, 30) for _ in range(int(rng.integers(1, 21)))]


def _xyz(t: Triplet) -> LingSet:
    return _join_pair(_join_pair(t.x, t.y, CFG), t.z, CFG)


def _tolerance_check(name: str, rule: str, deviations: list[float]) -> Check:
    violations = sum(d > IDENTITY_TOL for d in deviations)
    return Check(name, rule, len(deviations), violations, max(deviations))


def metric_axioms(rng: np.random.Generator, n: int) -> list[Check]:
    """Symmetry, triangle inequality and h(a,a)=0, exactly, over n set triples."""
    triples = [
        (random_lingset(rng), random_lingset(rng), random_lingset(rng)) for _ in range(n)
    ]
    return [
        Check("metric symmetry", "h(a,b) == h(b,a)", n,
              sum(hamming(a, b) != hamming(b, a) for a, b, _ in triples)),
        Check("triangle inequality", "h(a,c) <= h(a,b) + h(b,c)", n,
              sum(hamming(a, c) > hamming(a, b) + hamming(b, c) for a, b, c in triples)),
        Check("self-distance", "h(a,a) == 0", n,
              sum(hamming(a, a) != 0 for a, _, _ in triples)),
    ]


def kernel_shape(rng: np.random.Generator, n: int) -> list[Check]:
    """Kernel bounds, dependence on the distance alone and strict decrease, over n pairs."""
    out_of_bounds = 0
    mismatched = 0
    by_distance: dict[int, float] = {}
    for _ in range(n):
        a, b = random_lingset(rng), random_lingset(rng)
        value = kernel(a, b, CFG.bandwidth)
        at_zero = kernel(a, a, CFG.bandwidth)  # random pairs never reach h = 0
        out_of_bounds += not 0.0 < value <= at_zero <= KERNEL_PEAK + IDENTITY_TOL
        mismatched += by_distance.setdefault(hamming(a, b), value) != value
    distances = sorted(by_distance)
    values = [by_distance[h] for h in distances]
    increases = sum(earlier <= later for earlier, later in zip(values, values[1:]))
    seen = f"h in [{distances[0]}, {distances[-1]}]"
    return [
        Check("kernel bounds", f"0 < f(a,b) <= f(a,a) <= {KERNEL_PEAK:.10g} + {IDENTITY_TOL:g}",
              n, out_of_bounds),
        Check("kernel depends only on distance", "h(a,b) == h(c,d) => f(a,b) == f(c,d)",
              n, mismatched),
        Check("kernel strictly decreasing", "h < h' => f(h) > f(h')",
              len(distances), increases, seen=seen),
    ]


def estimator_identities(rng: np.random.Generator, n: int) -> list[Check]:
    """MI symmetry, self-MI, chain rule and likelihood telescoping, over n samples."""
    deviations: dict[str, list[float]] = {"sym": [], "self": [], "chain": [], "like": []}
    for _ in range(n):
        firsts = _random_sample(rng)
        pairs = [(a, random_lingset(rng, 30)) for a in firsts]
        triplets = [Triplet(a, random_lingset(rng, 10), b) for a, b in pairs]
        target = triplets[int(rng.integers(len(triplets)))]

        i_ab = mutual_information(pairs, CFG)
        deviations["sym"].append(abs(i_ab - mutual_information([(b, a) for a, b in pairs], CFG)))
        h_first = entropy(firsts, CFG)
        deviations["self"].append(abs(mutual_information([(v, v) for v in firsts], CFG) - h_first))
        deviations["chain"].append(
            abs(h_first + conditional_entropy(pairs, CFG) - joint_entropy(pairs, CFG))
        )
        direct = capacity(_xyz(target), [_xyz(t) for t in triplets], CFG)
        factored = triplet_likelihood(target, triplets, CFG)
        deviations["like"].append(abs(factored - direct) / abs(direct))
    tol = f"{IDENTITY_TOL:g}"
    return [
        _tolerance_check("MI symmetry", f"|I(a,b) - I(b,a)| <= {tol}", deviations["sym"]),
        _tolerance_check("self-MI equals entropy", f"|I(a,a) - H(a)| <= {tol}", deviations["self"]),
        _tolerance_check(
            "entropy chain rule", f"|H(a) + H(b|a) - H(a,b)| <= {tol}", deviations["chain"]
        ),
        _tolerance_check(
            "likelihood telescoping", f"|factorized - direct| / direct <= {tol}", deviations["like"]
        ),
    ]


def entropy_range(rng: np.random.Generator, n: int) -> list[Check]:
    """Normalized entropy within [0, ln n] over n samples of 1-20 sets."""
    violations = 0
    for _ in range(n):
        values = _random_sample(rng)
        violations += not 0.0 <= entropy(values, CFG) <= math.log(len(values)) + IDENTITY_TOL
    return [Check("normalized entropy range", f"0 <= H <= ln(n) + {IDENTITY_TOL:g}", n, violations)]


def reward_consistency(rng: np.random.Generator, n: int) -> list[Check]:
    """The margin reward is positive exactly when the MI ordering holds, over n records."""
    violations = 0
    for _ in range(n):
        vals = rng.normal(size=3)
        rec = MiRecord(
            k=1, i_xy=float(vals[0]), i_yz=float(vals[1]), i_xz=float(vals[2]),
            i_xy_z=0.0, i_xz_y=0.0, h_x=0.0, h_y=0.0, h_z=0.0, sample_size=1,
        )
        satisfied, _ = demarcken_check(rec)
        violations += (reward(rec, "margin") > 0) != satisfied
    return [Check("reward/ordering consistency", "margin > 0 iff ordering holds", n, violations)]


def run_checks(seed: int = 20240915) -> list[Check]:
    """Every invariant at small size, in a few seconds, for ``setinfo check``."""
    rng = np.random.default_rng(seed)
    return [
        *metric_axioms(rng, 200),
        *kernel_shape(rng, 300),
        *estimator_identities(rng, 20),
        *entropy_range(rng, 30),
        *reward_consistency(rng, 300),
    ]
