"""The scalar draws a random step reproduces, one generator call per draw.

``sample_contexts`` draws a document and an offset per window with
``Generator.integers`` and shuffles the windows with
``Generator.permutation``; ``cuts`` draws one context's cut indices with
``Generator.choice``.  ``setinfo.corpus.sample_contexts`` and the random
step of ``setinfo.build_step_samples`` take these draws in batches, and
must equal them in values and in the state they leave the generator in,
for any bit generator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def sample_contexts(
    token_lists: Sequence[Sequence[str]], length: int, n: int, rng: np.random.Generator
) -> list[tuple[str, ...]]:
    """n windows of ``length`` tokens from the lists at least that long, then shuffled."""
    eligible = [toks for toks in token_lists if len(toks) >= length]
    windows = []
    for _ in range(n):
        toks = eligible[int(rng.integers(len(eligible)))]
        offset = int(rng.integers(len(toks) - length + 1))
        windows.append(tuple(toks[offset : offset + length]))
    return [windows[i] for i in rng.permutation(n)]


def cuts(length: int, rng: np.random.Generator) -> tuple[int, int]:
    """A uniformly chosen pair of cut indices 1 <= i < j <= length - 1."""
    pair = rng.choice(length - 1, size=2, replace=False) + 1
    return int(pair.min()), int(pair.max())


def random_step(
    token_lists: Sequence[Sequence[str]], length: int, n: int, rng: np.random.Generator
) -> list[tuple[str, str, str]]:
    """One random step's surfaces: n windows, each cut in the order drawn."""
    surfaces = []
    for tokens in sample_contexts(token_lists, length, n, rng):
        i, j = cuts(length, rng)
        surfaces.append((" ".join(tokens[:i]), " ".join(tokens[i:j]), " ".join(tokens[j:])))
    return surfaces
