"""A fixed kernel whose run time tracks how fast the shared host is right now.

Usage: python3 perfbench/calibrate.py   (prints its own wall time in seconds)

The host this benchmark was sized on swings in speed by up to 50% over
minutes, as other tenants load it.  run.py starts this kernel in a fresh
process before every measured run and scales the end-to-end times by the
invocation's median kernel time, so figures from a slow and a fast minute
compare.  The kernel does what the program does: a numpy import, n-gram
sets built from strings, gram indices packed into uint64 rows by scalar
numpy operations, and a pairwise XOR popcount.  It imports nothing from
the program, so a change to the program never changes it; a change to this
file makes figures before and after it incomparable.
"""

import time

START = time.perf_counter()

import numpy as np  # noqa: E402  (the import is part of what is timed)

WORDS = [f"w{(i * 7919) % 5003:x}q{(i * 104729) % 7:d}zz{i % 31}" for i in range(3000)]


def grams(text: str) -> frozenset:
    return frozenset(text[i:i + n] for n in (1, 2, 3) for i in range(len(text) - n + 1))


def main() -> None:
    sets = [
        grams(" ".join(WORDS[(k * 37 + j * 11) % len(WORDS)] for j in range(10)))
        for k in range(100)
    ]
    one = np.uint64(1)
    for _ in range(12):
        vocab: dict[str, int] = {}
        for g in sets:
            for gram in g:
                if gram not in vocab:
                    vocab[gram] = len(vocab)
        bits = np.zeros((len(sets), (len(vocab) + 63) // 64), dtype=np.uint64)
        for i, g in enumerate(sets):
            row = bits[i]
            for gram in g:
                idx = vocab[gram]
                row[idx >> 6] |= one << np.uint64(idx & 63)
        d = np.bitwise_count(bits[:, None, :] ^ bits[None, :, :]).sum(axis=2, dtype=np.int64)
        np.exp(-(d.astype(np.float64) ** 2) / 50.0).mean(axis=1)


if __name__ == "__main__":
    main()
    print(repr(time.perf_counter() - START))
