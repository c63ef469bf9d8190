"""Self-tests of the benchmark's own pieces: inputs, oracle, tracer, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
from tracer import Site, Tracer  # noqa: E402


# -- inputs -------------------------------------------------------------------------

def _all_inputs(seed: int, tmp: Path) -> dict:
    rng = inputs.rng_for(seed, "test")
    uniform = inputs.uniform_genome(rng, 5_000)
    repeats = inputs.repeat_genome(rng, 20_000)
    reads = inputs.sample_reads(rng, repeats, 300)
    fq = tmp / f"reads-{seed}.fq"
    inputs.write_fastq(fq, reads)
    universe, _ = oracle.count(reads)
    keys = inputs.zipf_keys(rng, universe, 2_000)
    return {"uniform": uniform, "repeats": repeats, "reads": reads,
            "fastq": np.frombuffer(fq.read_bytes(), dtype=np.uint8), "keys": keys,
            "schedule": inputs.open_loop(400.0, 2.5)}


def test_same_seed_same_inputs(tmp_path):
    a, b = _all_inputs(7, tmp_path), _all_inputs(7, tmp_path)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
    c = _all_inputs(8, tmp_path)
    assert not np.array_equal(a["reads"], c["reads"])


def test_zipf_keys_are_skewed_with_absent_keys():
    rng = inputs.rng_for(1, "zipf")
    universe = np.unique(rng.integers(0, 1 << 62, size=5_000, dtype=np.uint64))
    keys = inputs.zipf_keys(rng, universe, 20_000, absent_frac=0.02)
    present = np.isin(keys, universe)
    assert 0.01 < 1 - present.mean() < 0.03
    _, freq = np.unique(keys[present], return_counts=True)
    assert freq.max() > 50 * np.median(freq)      # a hot head


def test_fastq_round_trips_through_the_alphabet(tmp_path):
    reads = inputs.sample_reads(inputs.rng_for(3, "fq"), inputs.uniform_genome(
        inputs.rng_for(3, "g"), 1_000), 20)
    inputs.write_fastq(tmp_path / "r.fq", reads)
    lines = (tmp_path / "r.fq").read_text().splitlines()
    seqs = lines[1::4]
    codes = np.array([[b"ACGT".index(ch) for ch in s.encode()] for s in seqs])
    assert np.array_equal(codes, reads)


# -- oracle -------------------------------------------------------------------------

@pytest.mark.parametrize("k,length,n", [(3, 12, 40), (11, 40, 25), (31, 45, 30)])
def test_oracle_agrees_with_counter(k, length, n):
    rng = inputs.rng_for(k, "oracle")
    genome = inputs.repeat_genome(rng, 400) if k > 3 else inputs.uniform_genome(rng, 60)
    reads = inputs.sample_reads(rng, genome, n, sub_rate=0.01, read_len=length)
    keys, counts = oracle.count(reads, k)
    ref_keys, ref_counts = oracle.counter_count(reads, k)
    assert np.array_equal(keys, ref_keys)
    assert np.array_equal(counts, ref_counts)
    assert counts.sum() == n * (length - k + 1)


def test_oracle_lookup_and_digest():
    keys = np.array([2, 5, 9], dtype=np.uint64)
    counts = np.array([1, 4, 2], dtype=np.int64)
    got = oracle.lookup(keys, counts, np.array([9, 3, 2, 10], dtype=np.uint64))
    assert got.tolist() == [2, 0, 1, 0]
    assert oracle.digest(keys, counts) == oracle.digest(keys.copy(), counts.copy())
    assert oracle.digest(keys, counts) != oracle.digest(keys, counts + 1)


# -- tracer -------------------------------------------------------------------------

@pytest.fixture
def toy_module(monkeypatch):
    mod = types.ModuleType("perfbench_toy")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    def numbers(n):
        yield from range(n)

    class Box:
        def put(self, x):
            return mod.leaf(x)

    mod.leaf, mod.outer, mod.numbers, mod.Box = leaf, outer, numbers, Box
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_tracer_restores_originals_and_reports_absent(toy_module):
    originals = (toy_module.leaf, toy_module.outer, toy_module.Box.__dict__["put"])
    sites = [Site("toy.leaf", "perfbench_toy:leaf"), Site("toy.outer", "perfbench_toy:outer"),
             Site("toy.put", "perfbench_toy:Box.put"),
             Site("toy.gone", "perfbench_toy:no_such_function"),
             Site("toy.nomod", "perfbench_no_such_module:f")]
    with Tracer(sites) as tracer:
        assert toy_module.leaf is not originals[0]
        assert toy_module.outer(1) == 4
        assert toy_module.Box().put(5) == 6
    assert (toy_module.leaf, toy_module.outer, toy_module.Box.__dict__["put"]) == originals
    assert tracer.absent == ["perfbench_toy:no_such_function", "perfbench_no_such_module:f"]
    assert tracer.spans["toy.leaf"].calls == 2
    assert tracer.spans["toy.put"].calls == 1
    assert tracer.spans["toy.gone"].calls == 0


def test_tracer_self_time_excludes_children(toy_module):
    import time

    def slow_leaf(x):
        time.sleep(0.02)
        return x

    toy_module.leaf = slow_leaf
    with Tracer([Site("toy.leaf", "perfbench_toy:leaf"),
                 Site("toy.outer", "perfbench_toy:outer")]) as tracer:
        toy_module.outer(1)
    outer, leaf = tracer.spans["toy.outer"], tracer.spans["toy.leaf"]
    assert leaf.busy_s >= 0.02 and leaf.self_s == leaf.busy_s
    assert outer.busy_s >= leaf.busy_s
    assert abs(outer.self_s - (outer.busy_s - leaf.busy_s)) < 1e-9
    assert outer.self_s < 0.01


def test_tracer_times_generator_steps_and_counts(toy_module):
    site = Site("toy.numbers", "perfbench_toy:numbers", generator=True)
    counted = Site("toy.leaf", "perfbench_toy:leaf",
                   measure=lambda a, kw, r, b: {"items": a[0]})
    with Tracer([site, counted]) as tracer:
        assert list(toy_module.numbers(4)) == [0, 1, 2, 3]
        toy_module.leaf(3)
        toy_module.leaf(4)
    assert tracer.spans["toy.numbers"].calls == 5        # four items and the stop
    assert tracer.spans["toy.leaf"].counters == {"items": 7}


def test_traced_program_output_equals_untraced(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    streaming = importlib.import_module("repro.apps.streaming")
    rng = inputs.rng_for(5, "traced")
    reads = inputs.sample_reads(rng, inputs.uniform_genome(rng, 3_000), 400)
    inputs.write_fastq(tmp_path / "r.fq", reads)
    before = {s.target: Tracer([])._resolve(s.target) for s in worker.SITES}
    plain = streaming.count_file_streaming(tmp_path / "r.fq", 31, batch_records=150)
    with Tracer(worker.SITES) as tracer:
        traced = streaming.count_file_streaming(tmp_path / "r.fq", 31, batch_records=150)
    assert tracer.absent == []
    assert tracer.spans["seq.split_superkmers_flat"].calls == 3
    assert np.array_equal(plain.kmers, traced.kmers)
    assert np.array_equal(plain.counts, traced.counts)
    assert oracle.digest(traced.kmers, traced.counts) == oracle.digest(*oracle.count(reads))
    after = {s.target: Tracer([])._resolve(s.target) for s in worker.SITES}
    assert all(before[t][2] is after[t][2] for t in before)


# -- calibration ----------------------------------------------------------------------

def test_calibration_kernel_is_fixed_and_scales_to_reference():
    import run

    fixed = np.random.default_rng(20_250_701).integers(0, 4, size=(1_000, 150),
                                                       dtype=np.uint8)
    assert np.array_equal(calibrate._READS, fixed)
    assert calibrate.kernel() == oracle.count(fixed)[0].size
    assert len(calibrate.samples(3)) == 3 and min(calibrate.samples(3)) > 0
    ref = calibrate.REFERENCE_S
    assert calibrate.scale([ref, ref * 2, ref / 2]) == pytest.approx(1.0)
    assert calibrate.scale([ref * 2] * 3) == pytest.approx(0.5)
    result = {"setup": {"import_s": 0.2}, "op_s": [1.0, 2.0, 3.0], "peak_rss_mb": 50.0,
              "ref_s": [ref * 2] * 5}
    reads = np.zeros((10, 150), dtype=np.uint8)
    host = run.end_to_end("ooc-spill", {"reads": reads}, result, [0.2])
    scaled = run.end_to_end("ooc-spill", {"reads": reads}, result, [0.2],
                            run.host_scale(result, [ref * 2]))
    assert scaled["op_p50_ms"] == pytest.approx(host["op_p50_ms"] / 2)
    assert scaled["op_p99_ms"] == pytest.approx(host["op_p99_ms"] / 2)
    assert scaled["setup_s"] == pytest.approx(host["setup_s"] / 2)
    assert scaled["kmers_per_s"] == pytest.approx(host["kmers_per_s"] * 2)
    assert scaled["peak_rss_mb"] == host["peak_rss_mb"]


# -- metric names ---------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert e2e == metrics.END_TO_END
    assert layer == metrics.per_layer()
    names = [n for n, _u, _b in e2e + layer]
    assert len(names) == len(set(names))
    assert all(metrics.NAME_RE.match(n) for n in names)
    assert [w["name"] for w in doc["workloads"]] == list(metrics.SPANS)


def test_every_reported_span_is_traced():
    import worker

    traced = {site.span for site in worker.SITES}
    assert {s for spans in metrics.SPANS.values() for s in spans} <= traced


# -- refusing to run without the program ------------------------------------------------

def test_run_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count-file",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
