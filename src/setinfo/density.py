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

A family's pairwise distances come from one indicator-matrix product: its
sets over V distinct grams form a 0/1 matrix M, and |A ^ B| = |A| + |B| -
2 (M M^T)_AB, with the sizes |A| on the product's diagonal.  The product
runs in float32 and is exact: every partial sum is an integer no larger
than the smaller set, and sets are required to hold fewer than 2^24 grams,
below which float32 counts every integer.

Every estimator takes its capacities from one function, ``_capacities``,
which is handed one, two or three samples (``entropy``; the pair
estimators; a step's x, y and z) and returns the capacities of each sample
and of each of their joins.  Rows are built from gram ids, not gram
strings, and every call numbers its grams through one ``GramIndex``: the
one that built the first set, if it has the call's n-gram settings, else a
new one.  That index's sets carry their ids and are told apart by
identity, in one ``np.unique``; the other sets are numbered in one call,
and one scatter fills the boolean rows of the distinct sets
(``_set_rows``).  No joined set is built: a joined family's rows are the
OR of its parts' rows.  A concat join, like ``join``, reads the sources:
a set the index did not build enters it as the index's set of its source,
and the seam grams across the joining space come from the index's window
memo, which ``GramIndex.segments`` fills by the same rule: the window at
a space is the slice of its text ``n_max - 1`` characters either side of
it.  All of a call's windows are looked up in one
``GramIndex.window_parts`` batch, as part numbers whose gram ids one
gather takes from the index's store.
Only a family's u
distinct members get rows and a product; the distances are exact
integers, so each kernel value is read from one table over the distances
0, 1, 2, ... instead of computed per pair, and each distinct member's kernel
row is spread over all n members before its mean, so that every capacity
sums the same n values in the same order as the full n x n matrix would.
With n = ``per_step`` the step's rows cost O(n*V) bytes, and each family
O(u*V) bytes of rows and float32 plus O(u*n) integer distances and kernel
values.  The scalar ``kernel``/``hamming``/``capacity`` functions and
``join`` are the oracle it is tested against.

These large arrays are views into a ``Scratch``: one buffer per role, kept
in the ``scratch`` of the run's ``GramIndex`` (the index that built the
step's sets) for as long as the index lives, and regrown, to half again the
request, only when a request outgrows it.  After a run's first step, a step
thus makes none of its large arrays anew and maps again no page that an
earlier step handed back to the system.  A call whose sets have no such
index, such as ``entropy`` of plain ``ngram_set`` sets, makes a new index,
and with it a new scratch, for the call.  No view of a scratch is
returned: every capacity vector is a new array.

A step is one ``step`` pass, one ``_capacities`` call on its x, y and z,
which gives both its ``MiRecord`` and its joint-mass monitor counts; a
run's ``compute_mi_record`` and ``joint_mass_monitor`` calls share it.

All logarithms are natural; every quantity is in nats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .ngrams import GramIndex, LingSet, hamming, join

if TYPE_CHECKING:  # pragma: no cover
    from .agents import Triplet


class EmptySample(ValueError):
    """An estimator was handed an empty sample."""


class DegenerateDenominator(ArithmeticError):
    """A conditional factor's denominator capacity underflowed to zero."""


ENTROPY_MODES = ("normalized", "raw")
JOINT_MODES = ("union", "concat")


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by every estimator in a run.

    ``bandwidth`` controls how strictly two realizations must match before
    they lend each other probability mass.  ``n_min``/``n_max``/``include_space``
    decide how a text becomes a gram set: ``run_simulation`` builds every set
    of a run through one ``gram_index()``, and concat-mode joins re-extract
    grams the same way.
    """

    bandwidth: float = 5.0
    entropy_mode: str = "normalized"
    joint_mode: str = "union"
    n_min: int = 1
    n_max: int = 3
    include_space: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"estimator.bandwidth must be positive and finite, got {self.bandwidth}")
        if self.entropy_mode not in ENTROPY_MODES:
            raise ValueError(f"estimator.entropy_mode must be one of {ENTROPY_MODES}")
        if self.joint_mode not in JOINT_MODES:
            raise ValueError(f"estimator.joint_mode must be one of {JOINT_MODES}")
        if self.n_min < 1:
            raise ValueError(f"ngram.n_min must be >= 1, got {self.n_min}")
        if self.n_max < self.n_min:
            raise ValueError(f"ngram.n_max must be >= ngram.n_min ({self.n_min}), got {self.n_max}")

    def gram_index(self) -> GramIndex:
        """A new index that builds gram sets under this run's n-gram settings."""
        return GramIndex(self.n_min, self.n_max, self.include_space)


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


def kernel(a: LingSet, b: LingSet, bandwidth: float) -> float:
    """Gaussian kernel of the set distance.

    Maximal, 1/sqrt(2 pi bandwidth^2), exactly when the gram sets coincide;
    strictly decreasing in the distance.
    """
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    h = hamming(a, b)
    return math.exp(-(h * h) / (2.0 * bandwidth * bandwidth)) / math.sqrt(
        2.0 * math.pi * bandwidth * bandwidth
    )


def _kernel_from_distances(d: np.ndarray, bandwidth: float) -> np.ndarray:
    return np.exp(-(d * d) / (2.0 * bandwidth * bandwidth)) / math.sqrt(
        2.0 * math.pi * bandwidth * bandwidth
    )


def _index_for(first: LingSet, cfg: EstimatorConfig) -> GramIndex:
    """The index that built ``first`` if it has ``cfg``'s n-gram settings, else a new one."""
    index = first.index
    if index is not None and index.settings == (cfg.n_min, cfg.n_max, cfg.include_space):
        return index
    return cfg.gram_index()


class Scratch:
    """Buffers that a run keeps, from step to step, for its steps' large arrays.

    ``take`` returns a C-contiguous view of exactly the shape asked for,
    laid from the start of its role's buffer, so the array is strided, and
    its rows summed, as a new one of that shape would be; the view is valid
    until the role's next ``take``.  A buffer too small for a request is
    replaced by one half as large again as the request, so every regrowth
    at least multiplies its size by 1.5, and pages that no step touches are
    never mapped.  Four roles hold a step's large arrays:

    - "rows": the step's table of boolean rows, read by every family.
    - "part": one part's gathered rows, ORed into its family's rows.
    - "even" and "odd": a chain of arrays in which each is made from the one
      before it, which is then no longer read: the step's gram ids (even),
      their offsets into the table (odd), and then, for each family, its
      rows (even), their float32 copy (odd), the Gram product (even), the
      distances (odd), the distances spread over all n members (even) and
      the kernel values (odd, or even when nothing was spread).  An array
      never shares a buffer with the one it is made from.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        buffer = self.buffers.get(role)
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if buffer is None or buffer.nbytes < nbytes:
            buffer = self.buffers[role] = None  # the old buffer goes before the new one is made
            buffer = self.buffers[role] = np.empty(nbytes + nbytes // 2, dtype=np.uint8)
        return np.ndarray(shape, dtype, buffer)


def _scratch(index: GramIndex) -> Scratch:
    """The scratch on ``index``, kept as long as the index."""
    if index.scratch is None:
        index.scratch = Scratch()
    return index.scratch


def _set_rows(
    families: Sequence[Sequence[LingSet]],
    windows: np.ndarray | None,
    index: GramIndex,
    scratch: Scratch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One boolean row per distinct set of ``families`` and distinct part of ``windows``, and their row numbers.

    The families are equal-length sequences of sets, and ``windows``, if
    given, is an array of ``index``'s window parts, one seam family per
    row.  A set that ``index`` built is told apart by identity, and brings
    its ids, so no gram string is read; every other set is told apart by
    its grams, which are numbered in one ``index.number`` call.  One
    ``np.unique`` over the sets' keys numbers their rows in first-sight
    order, and one over the window parts numbers the parts' rows after
    them, whose ids come from one ``index.gather``.  Two sets with equal
    grams may thus get two equal rows.  The rows are ``scratch``'s; the
    row numbers come as one array per family and one per seam family.
    """
    sets = list(chain.from_iterable(families))
    keys = np.fromiter(map(id, sets), dtype=np.intp, count=len(sets))
    foreign = [i for i, s in enumerate(sets) if s.index is not index]
    by_grams: dict[frozenset[str], int] = {}
    for i in foreign:
        keys[i] = by_grams.setdefault(sets[i].grams, keys[i])
    # Every sort here is stable: numpy's default quicksort would map the
    # pages of its SIMD sort, about 0.4 MB of RSS that a run uses nowhere else.
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    distinct = [sets[i] for i in first[order].tolist()]
    ids = [s.ids if s.index is index else None for s in distinct]
    unnumbered = [row for row, s in enumerate(distinct) if s.index is not index]
    if unnumbered:
        flat = index.number(chain.from_iterable(distinct[row].grams for row in unnumbered))
        start = 0
        for row in unnumbered:
            ids[row] = flat[start : (start := start + len(distinct[row].grams))]
    lengths = np.fromiter(map(len, ids), dtype=np.intp, count=len(ids))
    seams = None
    if windows is not None:
        parts, _, seams = np.unique(windows.ravel(), return_index=True, return_inverse=True)
        window_ids, bounds = index.gather(parts)
        ids.append(window_ids)
        lengths = np.concatenate((lengths, np.diff(bounds)))
        seams = (seams + len(distinct)).reshape(windows.shape)
    numbers = rank[inverse].reshape(len(families), -1)
    return _indicator_rows(ids, lengths, scratch), numbers, seams


def _indicator_rows(ids: Sequence[np.ndarray], lengths: np.ndarray, scratch: Scratch) -> np.ndarray:
    """One boolean row per length of ``lengths``, over the distinct ids in ascending order.

    The rows' gram ids are the ids of ``ids`` laid end to end, row after
    row; row r holds the next ``lengths[r]`` of them.  The ids present are
    marked in one table over the index's ids, whose running count gives
    each one its column; a repeated id in a row sets its entry twice.  Rows
    stay boolean (one byte per entry) so that a step can gather and join
    them cheaply; ``_row_distances`` takes them to float32 for the product.
    The rows are ``scratch``'s "rows" array, valid until its next
    ``_indicator_rows``.
    """
    # As intp, so that no indexing below makes an intp copy of the ids.
    flat = np.concatenate(ids, out=scratch.take("even", (int(lengths.sum()),), np.intp))
    present = np.zeros(flat.max(initial=-1) + 1, dtype=bool)
    present[flat] = True
    column = np.cumsum(present) - 1
    m = scratch.take("rows", (len(lengths), int(present.sum())), bool)
    m.fill(False)
    # Each id's offset in the flattened rows: its column plus its row's start.
    at = np.take(column, flat, out=scratch.take("odd", flat.shape, np.intp), mode="clip")
    at += np.repeat(np.arange(len(lengths)) * m.shape[1], lengths)
    m.reshape(-1)[at] = True
    return m


def _row_distances(m: np.ndarray, scratch: Scratch) -> np.ndarray:
    """Pairwise symmetric-difference counts of boolean rows, |A| + |B| - 2 |A & B|, as integers.

    The rows are taken to float32 for one BLAS product, whose diagonal holds
    the row sizes.  Every partial sum of |A & B| is an integer no larger
    than the row sizes, which must stay below 2^24, so the product is exact
    in any summation order and the distances agree with per-pair ``hamming``
    calls to the last bit, whatever the columns.  Only rows of 2^24 or more
    columns can break that bound; their sizes are counted, and checked,
    before any float array is built.  The float32 rows, the product and the
    distances take ``scratch``'s "odd", "even" and "odd" roles, so ``m`` may
    be its "even" array.
    """
    if m.shape[1] >= 2**24:
        top = m.sum(axis=1).max(initial=0)
        if top >= 2**24:  # float32 counts exactly only up to 2^24
            raise ValueError(f"exact float32 products need rows of fewer than 2^24 grams, got {top}")
    u = len(m)
    f = scratch.take("odd", m.shape, np.float32)
    np.copyto(f, m)
    gram = np.matmul(f, f.T, out=scratch.take("even", (u, u), np.float32))
    del f  # so that "odd" can let its buffer go if it must regrow
    d = scratch.take("odd", (u, u), np.intp)
    np.copyto(d, gram, casting="unsafe")
    sizes = d.diagonal().copy()
    d *= -2
    d += sizes[:, None]
    d += sizes
    return d


@functools.lru_cache(maxsize=8)
def _kernel_table(bandwidth: float, size: int) -> np.ndarray:
    """``_kernel_from_distances`` of the distances 0 .. size - 1, read-only."""
    table = _kernel_from_distances(np.arange(size, dtype=np.float64), bandwidth)
    table.flags.writeable = False
    return table


def _family_capacities(
    key: np.ndarray,
    table: np.ndarray,
    parts: Sequence[np.ndarray],
    bandwidth: float,
    scratch: Scratch,
) -> tuple[np.ndarray, np.ndarray]:
    """Resubstitution capacity of every member of a family, and its distinct-member number.

    Member i's row is the OR of the rows ``table[p[i]]`` for p in
    ``parts``; members with equal ``key`` have equal rows.  Only the
    distinct members' rows are built and multiplied, and each kernel value
    is read from a table indexed by the exact integer distance.  A distinct
    member's kernel row is laid out over all n members, in member order and
    contiguous, so its mean adds the same n values in the same order as a
    row of the full n x n kernel matrix, to the same bit; the means are then
    gathered back to the members.  When every member is distinct, the rows
    are built in member order and nothing is gathered.
    """
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    u, n = len(first), len(key)
    sel = slice(None) if u == n else first
    take = scratch.take
    # mode="clip" gathers straight into ``out``, which mode="raise" would buffer.
    m = take("even", (u, table.shape[1]), bool)
    np.take(table, parts[0][sel], axis=0, out=m, mode="clip")
    if len(parts) > 1:
        part = take("part", m.shape, bool)
        for p in parts[1:]:
            m |= np.take(table, p[sel], axis=0, out=part, mode="clip")
    d = _row_distances(m, scratch)
    del m
    kernel = _kernel_table(bandwidth, 1 << int(d.max(initial=0)).bit_length())
    if u < n:  # each distinct member's distances to all n members, in member order
        d = np.take(d, inv, axis=1, out=take("even", (u, n), np.intp), mode="clip")
    values = take("odd" if u < n else "even", (u, n), np.float64)
    means = np.take(kernel, d, out=values, mode="clip").mean(axis=1)
    return (means if u == n else means[inv]), inv


def _capacities(samples: Sequence[Sequence[LingSet]], cfg: EstimatorConfig) -> list[np.ndarray]:
    """Capacity vectors of 1, 2 or 3 equal-length samples and of their joins.

    The families are ``[a]``, ``[a, b, ab]`` or ``[x, y, z, xy, yz, xz,
    xy+z, xz+y]``, each member's capacity taken within its own family.
    Every member is a tuple of row numbers into one table (``_set_rows``)
    of the samples' distinct sets and, in concat mode, the distinct seam
    windows, and a joined member's row is the OR of its parts' rows.  A
    union join is the OR of its components' own grams.  A concat join, as
    ``join``, re-extracts grams from the space-joined sources: it is the OR
    of the index's sets of its sources, which one ``segments`` call builds
    for the sets that the index did not build, and, with ``include_space``,
    of the index's window at the joining space of ``a + " " + b``, the one
    window rule of ``GramIndex``; for xy+z and xz+y the left side is the
    joined source ``x + " " + y`` (or ``z``).  The 5 seam families' windows
    (1 for two samples) are found in one ``window_parts`` call, as parts of
    the index's store.  ``run_simulation`` builds every
    set through the run's index, so its steps build no source.  Without
    seams, xy+z = xz+y = xyz, and one family serves both.

    Each family keys its members by their parts' row numbers (xy+z and
    xz+y by xy's or xz's distinct-member number and the rest), mixed-radix
    over r = max(table rows, n), at most three digits, so keys stay exact
    in int64 for any r below 2^21.  The distances equal those of
    ``join``-built families exactly, and ``_family_capacities`` sums every
    capacity over the same n kernel values in the same order, so each
    vector is bit-identical to ``entropy``'s of its family.  The arrays
    live in the ``Scratch`` on the index, so that later calls on its sets
    reuse them; the vectors are new arrays, never views of the scratch.
    """
    k = len(samples)
    index = _index_for(samples[0][0], cfg)
    joins = [(0, 1), (1, 2), (0, 2)][: k * (k - 1) // 2]
    families = [list(s) for s in samples]
    concat = cfg.joint_mode == "concat" and k > 1
    foreign = concat and list(dict.fromkeys([s.source for s in chain(*samples) if s.index is not index]))
    if foreign:
        built = dict(zip(foreign, index.segments(foreign, [index.pieces(t) for t in foreign])))
        families += [[s if s.index is index else built[s.source] for s in f] for f in samples]
    windows = None
    if concat and cfg.include_space:
        sources = [[s.source for s in f] for f in samples]
        tails = list(chain.from_iterable(sources[a] for a, _ in joins))
        heads = list(chain.from_iterable(sources[b] for _, b in joins))
        if k == 3:
            sx, sy, sz = sources
            tails += [f"{a} {b}" for a, b in zip(sx, sy)] + [f"{a} {b}" for a, b in zip(sx, sz)]
            heads += sz + sy
        windows = index.window_parts(tails, heads).reshape(-1, len(samples[0]))
    scratch = _scratch(index)
    table, numbers, seam_rows = _set_rows(families, windows, index, scratch)
    parts = numbers[k : 2 * k] if foreign else numbers[:k]  # the rows a join reads
    # Each seam is a list of zero (union, or no spaces) or one row-number array.
    seams = [[s] for s in seam_rows] if seam_rows is not None else [[]] * 5
    radix = max(len(table), len(samples[0]))

    def capacities(digits: list[np.ndarray], rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        key = digits[0]
        for digit in digits[1:]:
            key = key * radix + digit
        return _family_capacities(key, table, rows, cfg.bandwidth, scratch)

    joined = [[parts[a], parts[b], *seam] for (a, b), seam in zip(joins, seams)]
    caps = [capacities(p, p) for p in [*([i] for i in numbers[:k]), *joined]]
    if k == 3:
        (_, jy, jz), (xy, _, xz), (s_xy_z, s_xz_y) = parts, joined, seams[3:]
        caps.append(capacities([caps[3][1], jz, *s_xy_z], [*xy, jz, *s_xy_z]))
        caps.append(capacities([caps[5][1], jy, *s_xz_y], [*xz, jy, *s_xz_y]) if s_xz_y else caps[-1])
    return [p for p, _ in caps]


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


def _entropies(samples: list[list[LingSet]], cfg: EstimatorConfig, name: str) -> list[float]:
    """The entropy of each of ``_capacities``' families; ``name`` is the caller, for an empty sample."""
    if not samples[0]:
        raise EmptySample(f"{name} needs a non-empty sample")
    return [_entropy_from_masses(p, cfg.entropy_mode) for p in _capacities(samples, cfg)]


def _pair_entropies(pairs: Iterable[tuple[LingSet, LingSet]], cfg: EstimatorConfig, name: str) -> list[float]:
    """H(a), H(b) and H(a, b) over (a, b) pairs."""
    pairs = list(pairs)
    return _entropies([[a for a, _ in pairs], [b for _, b in pairs]], cfg, name)


def entropy(values: Sequence[LingSet], cfg: EstimatorConfig) -> float:
    """Shannon entropy over the multiset of realizations.

    Duplicates each contribute their own term: a sample of n copies of one
    set has normalized entropy ln n, and a singleton sample has entropy 0.
    """
    return _entropies([list(values)], cfg, "entropy")[0]


def _join_pair(a: LingSet, b: LingSet, cfg: EstimatorConfig) -> LingSet:
    return join(a, b, cfg.joint_mode, cfg.n_min, cfg.n_max, cfg.include_space)


def joint_entropy(pairs: Sequence[tuple[LingSet, LingSet]], cfg: EstimatorConfig) -> float:
    """Entropy of the per-pair joined realizations, equal to ``entropy`` of ``join``'s."""
    return _pair_entropies(pairs, cfg, "joint_entropy")[2]


def conditional_entropy(
    pairs: Sequence[tuple[LingSet, LingSet]], cfg: EstimatorConfig
) -> float:
    """H(target | cond) for (cond, target) pairs, via the chain rule H(joint) - H(cond)."""
    h_cond, _, h_joint = _pair_entropies(pairs, cfg, "conditional_entropy")
    return h_joint - h_cond


def mutual_information(
    pairs: Sequence[tuple[LingSet, LingSet]], cfg: EstimatorConfig
) -> float:
    """I(A, B) = H(A) + H(B) - H(A, B) over paired realizations."""
    h_a, h_b, h_ab = _pair_entropies(pairs, cfg, "mutual_information")
    return h_a + h_b - h_ab


def triplet_likelihood(t: "Triplet", sample: Sequence["Triplet"], cfg: EstimatorConfig) -> float:
    """Factorized action likelihood P(Y|X,Z) * P(Z|X) * P(X).

    The conditionals are capacity ratios, so the product telescopes to the
    direct three-way joint capacity; the factorized form is kept because it
    is the shape a structure learner would optimize factor by factor.
    """
    triplets = list(sample)
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


def step(k: int, triplets: Sequence["Triplet"], cfg: EstimatorConfig) -> tuple[MiRecord, int, int]:
    """One step's pass: its ``MiRecord`` and the joint-mass monitor's (violations, comparisons).

    One ``_capacities`` call gives the capacity vectors of x, y, z, xy, yz,
    xz, xy+z and xz+y (7 distinct families in union mode, where xy+z =
    xz+y = xyz, and 8 in concat mode).  Every MI is H(a) + H(b) - H(a+b)
    in ``mutual_information``'s order, so the two agree bit for bit.  The
    monitor compares, for each pairwise family (x,y), (y,z), (x,z) and each
    member, P(joint) against both component marginals; joint mass above a
    marginal's would contradict the monotonicity expected of a probability
    on sets, and the violations are counted, not asserted.
    """
    if not triplets:
        raise EmptySample("a step sample must contain at least one triplet")
    caps = _capacities([list(map(attrgetter(c), triplets)) for c in "xyz"], cfg)
    h_x, h_y, h_z, h_xy, h_yz, h_xz, h_xy_z, h_xz_y = (_entropy_from_masses(p, cfg.entropy_mode) for p in caps)
    record = MiRecord(
        k=k,
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
    p_x, p_y, p_z, p_xy, p_yz, p_xz, *_ = caps
    violations = 0
    for pj, pa, pb in ((p_xy, p_x, p_y), (p_yz, p_y, p_z), (p_xz, p_x, p_z)):
        violations += int((pj > pa).sum()) + int((pj > pb).sum())
    return record, violations, 6 * len(triplets)


# (triplets, cfg, (violations, comparisons)) of the last ``compute_mi_record``
# step, until ``joint_mass_monitor`` takes them.
_last_step: tuple = (None, None, None)


def compute_mi_record(k: int, triplets: Sequence["Triplet"], cfg: EstimatorConfig) -> MiRecord:
    """All five MI quantities plus marginal entropies for one step sample (``step``'s record).

    The step's monitor counts are kept, with the triplets tuple and the
    config, for a ``joint_mass_monitor`` call that follows on that tuple.
    """
    global _last_step
    triplets = tuple(triplets)
    record, violations, comparisons = step(k, triplets, cfg)
    _last_step = (triplets, cfg, (violations, comparisons))
    return record


def joint_mass_monitor(triplets: Sequence["Triplet"], cfg: EstimatorConfig) -> tuple[int, int]:
    """Count joint realizations whose capacity exceeds a marginal's capacity (``step``'s counts).

    Called right after ``compute_mi_record`` with the same triplets tuple and
    an equal config, it returns the counts that call's pass found, compared
    by identity in O(1); on any other input it runs ``step`` itself.  Either
    way it lets go of what ``compute_mi_record`` kept, so a run whose every
    step made both calls leaves no step held.
    """
    global _last_step
    last_triplets, last_cfg, counts = _last_step
    _last_step = (None, None, None)
    if triplets is last_triplets and cfg == last_cfg:
        return counts
    return step(0, tuple(triplets), cfg)[1:]
