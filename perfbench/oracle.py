"""The benchmark's own k-mer oracle.

Shift-OR extraction over a read matrix followed by ``np.unique``: a
different algorithm from the program's (no super-k-mers, no radix sort,
no merge), so a correctness check cannot pass by sharing a bug with the
code it checks.  :func:`counter_count` is an even plainer
``collections.Counter`` reference used to test this oracle on tiny
inputs.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

K = 31


def kmers_of(reads: np.ndarray, k: int = K) -> np.ndarray:
    """Every k-mer of every row of *reads* as a packed ``uint64`` (2 bits/base)."""
    reads = np.asarray(reads, dtype=np.uint8)
    n, m = reads.shape
    if m < k:
        return np.empty(0, dtype=np.uint64)
    out = np.zeros((n, m - k + 1), dtype=np.uint64)
    for j in range(k):
        out <<= np.uint64(2)
        out |= reads[:, j:j + m - k + 1].astype(np.uint64)
    return out.ravel()


def count(reads: np.ndarray, k: int = K) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct k-mers of *reads* and their counts (``uint64``, ``int64``)."""
    keys, counts = np.unique(kmers_of(reads, k), return_counts=True)
    return keys, counts.astype(np.int64)


def counter_count(reads: np.ndarray, k: int = K) -> tuple[np.ndarray, np.ndarray]:
    """The same result from a per-window Python loop and a Counter."""
    c: Counter = Counter()
    for row in np.asarray(reads).tolist():
        for i in range(len(row) - k + 1):
            v = 0
            for b in row[i:i + k]:
                v = (v << 2) | b
            c[v] += 1
    keys = sorted(c)
    return (np.array(keys, dtype=np.uint64),
            np.array([c[x] for x in keys], dtype=np.int64))


def lookup(keys: np.ndarray, counts: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Count of each *query* key in a sorted ``(keys, counts)`` table (0 if absent)."""
    query = np.asarray(query, dtype=np.uint64)
    if keys.size == 0:
        return np.zeros(query.size, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return np.where(keys[pos] == query, counts[pos], 0).astype(np.int64)


def digest(keys: np.ndarray, counts: np.ndarray) -> str:
    """Fingerprint of a count table, comparable across processes."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(keys, dtype=np.uint64).tobytes())
    h.update(np.ascontiguousarray(counts, dtype=np.int64).tobytes())
    return h.hexdigest()
