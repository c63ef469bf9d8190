"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-tests check that the two agree.  Per-layer names are
``<module>.<function>.<measure>``; ``pakman*`` is written ``pakman-star``.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: (name, unit, better) of each end-to-end metric; every run prints all of them.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("kmers_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Spans of the traced run, grouped by the workload that exercises them.
SPANS = {
    "count-file": ["seq.read_fastx", "seq.encode_batch", "seq.split_superkmers_flat",
                   "seq.count_superkmer_batch", "apps.merge_sorted_counts",
                   "apps.save_counts"],
    "ooc-spill": ["ooc.add_reads", "seq.split_superkmers_batch", "seq.pack_spans",
                  "ooc.count_bin", "ooc.superkmer_kmers", "sort.hybrid_sort"],
    "store-mixed": ["lsm.ingest", "lsm.wal_append", "lsm.absorb_count", "lsm.flush",
                    "lsm.compact", "lsm.get"],
    "sim-scaling": ["core.dakc_count", "core.bsp_count", "seq.extract_kmers_from_reads"],
}

SIM_LABELS = {"dakc": "dakc", "pakman*": "pakman-star", "hysortk": "hysortk"}
SIM_NODES = (4, 16, 64)

#: (name, unit, better) of each count that is not a span timing.
LAYER_COUNTS = [
    ("seq.split_superkmers_flat.superkmers", "count", "lower"),
    ("apps.save_counts.bytes", "B", "lower"),
    ("ooc.chunks_per_bin", "count", "lower"),
    ("ooc.flushes", "count", "lower"),
    ("ooc.spill_bytes_per_kmer", "B", "lower"),
    ("lsm.ingest.max_ms", "ms", "lower"),
    ("lsm.ingest.p99_ms", "ms", "lower"),
    ("lsm.wal.bytes", "B", "lower"),
    ("lsm.write_amp", "ratio", "lower"),
    ("lsm.get.keys", "count", "lower"),
    ("lsm.read_amp", "ratio", "lower"),
    ("serve.lookup_keys_per_batch", "count", "higher"),
    ("serve.cache_hit_rate", "ratio", "higher"),
    ("serve.cache_invalidations", "count", "lower"),
    ("serve.rejected", "count", "lower"),
]


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric, in report order."""
    out = []
    for spans in SPANS.values():
        for span in spans:
            out += [(f"{span}.busy_s", "s", "lower"), (f"{span}.self_s", "s", "lower"),
                    (f"{span}.calls", "count", "lower")]
    out += LAYER_COUNTS
    for label in SIM_LABELS.values():
        for nodes in SIM_NODES:
            out += [(f"runtime.{label}.n{nodes}.sim_s", "sim_s", "lower"),
                    (f"runtime.{label}.n{nodes}.bytes_sent", "B", "lower")]
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out
