"""Seeded inputs of the benchmark: genomes, reads, FASTQ files, key streams, schedules.

Everything here is plain numpy on the benchmark's side and imports nothing
from ``repro``, so the inputs cannot change when the program under test
changes.  The same ``(seed, stream)`` pair always yields the same arrays.

Bases are 2-bit codes A=0, C=1, G=2, T=3 (the order of the ``ACGT``
alphabet); a read set is a ``(n_reads, read_len)`` ``uint8`` matrix.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

READ_LEN = 150
ALPHABET = np.frombuffer(b"ACGT", dtype=np.uint8)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input kind)."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def uniform_genome(rng: np.random.Generator, length: int) -> np.ndarray:
    """A genome of i.i.d. uniform bases (almost every 31-mer is unique)."""
    return rng.integers(0, 4, size=length, dtype=np.uint8)


def mutate(rng: np.random.Generator, codes: np.ndarray, rate: float) -> np.ndarray:
    """Copy of *codes* with each base substituted by another with prob. *rate*."""
    out = codes.copy()
    hit = rng.random(out.size) < rate
    out[hit] = (out[hit] + rng.integers(1, 4, size=int(hit.sum()), dtype=np.uint8)) % 4
    return out


def repeat_genome(rng: np.random.Generator, length: int) -> np.ndarray:
    """A genome with human-like k-mer skew.

    About 40% of the sequence is diverged copies (0-8% substitutions) of
    twelve interspersed repeat families of 200-2000 bp, and about 3% is short tandem repeats;
    the rest is uniform.  High-multiplicity k-mers then come from the young
    copies and the tandem tracts, as in a real mammalian assembly.
    """
    genome = uniform_genome(rng, length)
    # A fixed family structure (short families copied most often, as Alu
    # is in human) keeps the k-mer spectrum alike from seed to seed; only
    # the sequences and the copy positions are random.
    sizes = np.geomspace(200, 2000, 12).astype(int)
    families = [uniform_genome(rng, int(n)) for n in sizes]
    weights = 1.0 / sizes
    weights /= weights.sum()
    covered, target = 0, int(0.40 * length)
    while covered < target:
        fam = families[rng.choice(len(families), p=weights)]
        copy = mutate(rng, fam, float(rng.uniform(0.0, 0.08)))
        pos = int(rng.integers(0, length - copy.size))
        genome[pos:pos + copy.size] = copy
        covered += copy.size
    covered, target = 0, int(0.03 * length)
    while covered < target:
        unit = uniform_genome(rng, int(rng.integers(1, 7)))
        tract = np.tile(unit, int(rng.integers(50, 300)) // unit.size + 1)
        pos = int(rng.integers(0, length - tract.size))
        genome[pos:pos + tract.size] = tract
        covered += tract.size
    return genome


def sample_reads(rng: np.random.Generator, genome: np.ndarray, n_reads: int,
                 sub_rate: float = 0.001, read_len: int = READ_LEN) -> np.ndarray:
    """Forward-strand reads at uniform positions, with base substitutions."""
    starts = rng.integers(0, genome.size - read_len + 1, size=n_reads)
    reads = genome[starts[:, None] + np.arange(read_len)]
    return mutate(rng, reads.ravel(), sub_rate).reshape(n_reads, read_len)


def reads_for_coverage(genome_len: int, coverage: float,
                       read_len: int = READ_LEN) -> int:
    return int(round(coverage * genome_len / read_len))


def write_fastq(path: str | Path, reads: np.ndarray) -> int:
    """Write *reads* as 4-line FASTQ records; returns bytes written."""
    seqs = ALPHABET[reads]
    qual = b"I" * reads.shape[1]
    parts = []
    for i, row in enumerate(seqs):
        parts.append(b"@r%d\n%s\n+\n%s\n" % (i, row.tobytes(), qual))
    data = b"".join(parts)
    Path(path).write_bytes(data)
    return len(data)


def zipf_keys(rng: np.random.Generator, universe: np.ndarray, n: int, *,
              s: float = 1.1, absent_frac: float = 0.02,
              key_bits: int = 62) -> np.ndarray:
    """*n* lookup keys: Zipf(*s*) over a seeded ranking of *universe*.

    A fraction *absent_frac* are replaced by random *key_bits*-bit keys
    that are not in *universe* (sorted, unique ``uint64``).
    """
    ranks = np.arange(1, universe.size + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -s)
    cdf /= cdf[-1]
    hot_order = rng.permutation(universe.size)
    picks = np.searchsorted(cdf, rng.random(n), side="right")
    keys = universe[hot_order[np.minimum(picks, universe.size - 1)]].copy()
    absent = np.flatnonzero(rng.random(n) < absent_frac)
    for i in absent:
        while True:
            cand = np.uint64(rng.integers(0, 1 << key_bits, dtype=np.uint64))
            j = np.searchsorted(universe, cand)
            if j == universe.size or universe[j] != cand:
                keys[i] = cand
                break
    return keys


def open_loop(rate: float, duration: float) -> np.ndarray:
    """Due times (seconds from start) of a fixed-rate open-loop schedule.

    Requests are sent on this schedule whether or not earlier ones have been
    answered; there is always at least one.
    """
    return np.arange(max(1, round(rate * duration)), dtype=np.float64) / rate
