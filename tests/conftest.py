from __future__ import annotations

import gc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from setinfo import ngram_set
from setinfo.checks import ALPHABET, random_lingset  # noqa: F401 - shared by the test modules

# Hypothesis strategy: short lowercase texts (non-empty after stripping).
texts = st.text(
    alphabet=ALPHABET,
    min_size=1,
    max_size=40,
).map(lambda s: s.strip() or "a")

lingsets = texts.map(lambda t: ngram_set(t, 1, 3, True))


def built_by(index):
    """The function that builds the set of one text through ``index``."""
    return lambda text: index.segments([text])[0]


def one_object_per_value(strings) -> bool:
    """Whether each distinct value among ``strings`` is one object."""
    strings = list(strings)  # keeps every object alive while ids are taken
    return len({id(s) for s in strings}) == len(set(strings))


@contextmanager
def collector_disabled():
    """Turn the cyclic garbage collector off for the block, so only reference counts free objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
