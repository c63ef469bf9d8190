"""Run one benchmark workload and print every metric.

    python3 perfbench/run.py --workload count-file --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout of it).  The script makes
the workload's inputs from ``--seed``, starts a fresh worker process
that imports ``repro`` from ``src/`` and runs the timed section for
``--seconds``, then checks every output against the benchmark's own
oracle.  It prints a table of metrics and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker runs once untraced and once under the layer tracer, and the
metrics are the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import calibrate
import inputs
import oracle
from metrics import END_TO_END, SIM_LABELS, SIM_NODES, SPANS, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("count-file", "ooc-spill", "store-mixed", "sim-scaling")

IMPORT_PROBES = 6            # fresh-process import samples besides the worker's own
WORKER_TIMEOUT_S = 150       # whole run must end within 180 s

# Workload shapes.  Sizes keep one unit of work (a file count, an ooc
# count, a sweep) within a few seconds on a 2-core host so that a 20 s
# run holds several units.
GENOMES = {"uniform": inputs.uniform_genome, "repeat": inputs.repeat_genome}
BATCH_READS = {   # workload: (genome kind, genome bases, coverage)
    "count-file": ("uniform", 100_000, 50),
    "ooc-spill": ("uniform", 40_000, 50),
    "sim-scaling": ("repeat", 40_000, 12),
}
COUNT_FILE_BATCH_RECORDS = 5_000
OOC_BINS, OOC_CEILING_DIVISOR = 32, 16
STORE_MIXED = dict(coverage=13, ingest_batch=200, ingest_rate=3.0, lookup_rate=400.0,
                   preload_batch=1_000, setup_repeats=3, cache_capacity=2_048,
                   lsm_config=dict(memtable_bytes=1 << 20, max_runs=4, fan_in=4))


def n_kmers(reads: np.ndarray) -> int:
    return reads.shape[0] * (reads.shape[1] - oracle.K + 1)


def pct(values, q: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q / 100,
                             method="inverted_cdf"))


# -- inputs ---------------------------------------------------------------------

def make_inputs(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Write the workload's inputs under *work*; returns the worker spec and oracle data."""
    spec: dict = {"dir": str(work)}
    rng = inputs.rng_for(seed, workload)
    if workload in BATCH_READS:
        kind, size, coverage = BATCH_READS[workload]
        genome = GENOMES[kind](rng, size)
        reads = inputs.sample_reads(rng, genome, inputs.reads_for_coverage(size, coverage))
        if workload == "count-file":
            spec["fastq"] = str(work / "reads.fq")
            inputs.write_fastq(spec["fastq"], reads)
            spec["batch_records"] = COUNT_FILE_BATCH_RECORDS
        else:
            spec["reads"] = str(work / "reads.npy")
            np.save(spec["reads"], reads)
        if workload == "ooc-spill":
            spec["n_bins"] = OOC_BINS
            spec["memory_bytes"] = reads.size // OOC_CEILING_DIVISOR
        return {"spec": spec, "reads": reads}
    # store-mixed: half the reads preload the store, the other half arrive
    # as fixed-size batches at a fixed rate over the run.
    p = STORE_MIXED
    ingest_due = inputs.open_loop(p["ingest_rate"], seconds)
    lookup_due = inputs.open_loop(p["lookup_rate"], seconds)
    half = ingest_due.size * p["ingest_batch"]
    genome = inputs.repeat_genome(rng, int(2 * half * inputs.READ_LEN / p["coverage"]))
    reads = inputs.sample_reads(rng, genome, 2 * half)
    preload, ingest = reads[:half], reads[half:]
    universe, _ = oracle.count(reads)
    keys = inputs.zipf_keys(inputs.rng_for(seed, "store-mixed-keys"), universe,
                            lookup_due.size)
    for name, arr in (("preload", preload), ("ingest", ingest), ("keys", keys),
                      ("ingest_due", ingest_due), ("lookup_due", lookup_due)):
        spec[name] = str(work / f"{name}.npy")
        np.save(spec[name], arr)
    spec.update({k: p[k] for k in ("ingest_batch", "preload_batch", "setup_repeats",
                                   "cache_capacity", "lsm_config")})
    spec["read_len"] = inputs.READ_LEN
    return {"spec": spec, "reads": reads, "preload": preload, "ingest": ingest,
            "keys": keys}


# -- worker processes -------------------------------------------------------------

def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(args: list[str], timeout: float) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout, env=_env())
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return proc.stdout


def import_samples(src: Path) -> tuple[list[float], list[float]]:
    """Import times of fresh processes, and calibration kernel timings between them."""
    imports, ref_s = [], []
    for _ in range(IMPORT_PROBES):
        imports.append(json.loads(_python(["--import-only", str(src)], 60))["import_s"])
        ref_s += calibrate.samples(1)
    return imports, ref_s


def run_worker(spec: dict, work: Path, trace: bool) -> dict:
    run_dir = work / f"run-{int(trace)}"      # each worker starts from empty state
    run_dir.mkdir()
    spec = dict(spec, trace=trace, dir=str(run_dir), out=str(run_dir / "result.json"))
    path = run_dir / "spec.json"
    path.write_text(json.dumps(spec))
    _python([str(path)], WORKER_TIMEOUT_S)
    return json.loads(Path(spec["out"]).read_text())


# -- correctness ------------------------------------------------------------------

def check(workload: str, data: dict, result: dict) -> tuple[int, int, list[str]]:
    """Compare outputs with the oracle; returns (attempted, failed, notes)."""
    if workload == "store-mixed":
        return check_store(data, result)
    notes = []
    want = oracle.digest(*oracle.count(data["reads"]))
    bad = sum(d != want for d in result["digests"])
    attempted = len(result["digests"])
    if bad:
        notes.append(f"{bad} of {attempted} counts differ from the oracle")
    if workload == "count-file":
        with np.load(result["saved"]) as db:
            if oracle.digest(db["kmers"], db["counts"]) != want or int(db["k"]) != oracle.K:
                notes.append("saved database differs from the oracle")
                if result["digests"][-1] == want:
                    bad += 1      # the last unit counted right but saved wrong
    if workload == "sim-scaling":
        first = result["sim"][0]
        for sweep in result["sim"][1:]:
            drift = sum(a != b for a, b in zip(first, sweep))
            if drift:
                notes.append(f"{drift} simulated points changed between sweeps")
                bad += drift
    return attempted, bad, notes


def check_store(data: dict, result: dict) -> tuple[int, int, list[str]]:
    """Each answer must lie between the key's count when issued and when answered."""
    notes = []
    spec = data["spec"]
    keys = data["keys"]
    look = result["lookups"]
    distinct, idx = np.unique(keys, return_inverse=True)
    batches = data["ingest"].reshape(-1, spec["ingest_batch"], inputs.READ_LEN)
    cum = np.empty((len(batches) + 1, distinct.size), dtype=np.int64)
    cum[0] = oracle.lookup(*oracle.count(data["preload"]), distinct)
    for j, batch in enumerate(batches):
        cum[j + 1] = cum[j] + oracle.lookup(*oracle.count(batch), distinct)
    answer = np.asarray(look["answer"])
    lo = cum[np.asarray(look["issued_at"]), idx]
    hi = cum[np.asarray(look["done_at"]), idx]
    status = np.asarray(look["status"])
    wrong = (status == 0) & ((answer < lo) | (answer > hi))
    failed = int(wrong.sum() + (status != 0).sum())
    for n, what in ((wrong.sum(), "outside their oracle bounds"),
                    ((status == 1).sum(), "refused (Overloaded)"),
                    ((status == 2).sum(), "raised an error")):
        if n:
            notes.append(f"{int(n)} lookups {what}")
    notes += [f"lookup error: {e}" for e in result["errors"]]
    attempted = keys.size + len(batches)
    if result["digests"][0] != oracle.digest(*oracle.count(data["reads"])):
        notes.append("final snapshot differs from the oracle")
        failed += len(batches)
    return attempted, failed, notes


# -- metrics ----------------------------------------------------------------------

def host_scale(result: dict, probe_ref_s: list[float]) -> float:
    """Host-to-reference seconds factor from every kernel timing of the run."""
    return calibrate.scale(probe_ref_s + result["setup"].get("ref_s", []) + result["ref_s"])


def end_to_end(workload: str, data: dict, result: dict, imports: list[float],
               scale: float = 1.0) -> dict:
    """End-to-end metrics; every duration is multiplied by *scale*."""
    setup = result["setup"]
    setup_s = statistics.median(imports + [setup["import_s"]])
    if workload == "store-mixed":
        setup_s += statistics.median(setup["preload_s"]) + setup["engine_s"]
        rate = n_kmers(data["ingest"]) / sum(result["ingest_s"])
    else:
        per_op = n_kmers(data["reads"])
        if workload == "sim-scaling":
            per_op *= len(SIM_LABELS) * len(SIM_NODES)
        rate = statistics.median(per_op / s for s in result["op_s"])
    op_ms = np.asarray(result["op_s"]) * 1e3 * scale
    return {"setup_s": setup_s * scale, "kmers_per_s": rate / scale,
            "op_p50_ms": pct(op_ms, 50), "op_p99_ms": pct(op_ms, 99),
            "peak_rss_mb": result["peak_rss_mb"]}


def layer_metrics(workload: str, traced: dict, plain: dict) -> dict:
    tr, units = traced["trace"], traced["units"]
    out = {name: 0.0 for name, _u, _b in per_layer()}
    for spans in SPANS.values():
        for span in spans:
            for measure in ("busy_s", "self_s", "calls"):
                out[f"{span}.{measure}"] = tr.get(f"{span}.{measure}", 0) / units
    out["seq.split_superkmers_flat.superkmers"] = (
        tr.get("seq.split_superkmers_flat.superkmers", 0) / units)
    out["apps.save_counts.bytes"] = tr.get("apps.save_counts.bytes", 0) / units
    if workload == "ooc-spill":
        out.update(traced["layer"])
    if workload == "store-mixed":
        out.update(traced["layer"])
        out["lsm.ingest.max_ms"] = tr.get("lsm.ingest.max_s", 0) * 1e3
        out["lsm.ingest.p99_ms"] = pct(traced["ingest_latency_s"], 99) * 1e3
        out["lsm.wal.bytes"] = tr.get("lsm.wal_append.bytes", 0)
        written = sum(tr.get(f"lsm.{s}.bytes", 0) for s in ("wal_append", "flush", "compact"))
        out["lsm.write_amp"] = written / max(1, tr.get("lsm.ingest.input_bytes", 0))
        keys = tr.get("lsm.get.keys", 0)
        out["lsm.get.keys"] = keys
        out["lsm.read_amp"] = tr.get("lsm.get.probes", 0) / max(1, keys)
        out["serve.lookup_keys_per_batch"] = keys / max(1, tr.get("lsm.get.calls", 0))
        out["serve.cache_invalidations"] = tr.get("serve.invalidate.dropped", 0)
    if workload == "sim-scaling":
        for algorithm, nodes, sim_s, sent in traced["sim"][0]:
            label = f"runtime.{SIM_LABELS[algorithm]}.n{nodes}"
            out[f"{label}.sim_s"] = sim_s
            out[f"{label}.bytes_sent"] = sent
    if traced is plain:
        overhead = statistics.median(traced["traced_op_s"]) / statistics.median(plain["op_s"])
    else:
        overhead = traced["cpu_s"] / plain["cpu_s"]
    out["trace.overhead_frac"] = overhead - 1
    return out


def print_table(title: str, values: dict, units: dict, extra: list[str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    for line in extra:
        print(f"  {line}")


# -- entry point --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure at {src / 'repro'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        data = make_inputs(args.workload, args.seed, args.seconds, work)
        spec = dict(data["spec"], workload=args.workload, seconds=args.seconds,
                    src=str(src))
        imports, probe_ref_s = import_samples(src)
        # A batch workload alternates traced and untraced units in one
        # worker; the open-loop store workload replays its schedule twice.
        traced = None
        if args.trace and args.workload == "store-mixed":
            plain = run_worker(spec, work, trace=False)
            traced = run_worker(spec, work, trace=True)
        else:
            plain = run_worker(spec, work, trace=bool(args.trace))
            traced = plain if args.trace else None
        attempted, failed, notes = check(args.workload, data, plain)
        if traced is not None and traced is not plain:
            t_att, t_failed, t_notes = check(args.workload, data, traced)
            attempted, failed = attempted + t_att, failed + t_failed
            notes += [f"traced run: {n}" for n in t_notes]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    scale = host_scale(plain, probe_ref_s)
    e2e = end_to_end(args.workload, data, plain, imports, scale)
    host = end_to_end(args.workload, data, plain, imports)
    extra = [f"attempted {attempted}, failed {failed}, "
             f"failed_frac {failed / max(1, attempted):.6g}",
             f"op samples {len(plain['op_s'])}",
             f"host-to-reference scale {scale:.4f} "
             f"(calibration kernel median {calibrate.REFERENCE_S / scale * 1e3:.3f} ms "
             f"over {len(probe_ref_s) + len(plain['setup'].get('ref_s', [])) + len(plain['ref_s'])})",
             "on the host clock: " + ", ".join(
                 f"{n} {host[n]:.6g}" for n in ("setup_s", "kmers_per_s", "op_p50_ms",
                                                "op_p99_ms"))]
    if args.workload == "store-mixed":
        late = np.asarray(plain["lateness_s"]) * 1e3
        extra += [f"ingest_p99_ms {pct(plain['ingest_latency_s'], 99) * 1e3:.6g} "
                  f"over {len(plain['ingest_latency_s'])} batches",
                  f"lookup generator lateness p99 {pct(late, 99):.6g} ms, "
                  f"max {late.max():.6g} ms", f"rejected {plain['rejected']}"]
    extra += notes
    print_table(f"{args.workload} seed={args.seed} seconds={args.seconds:g}", e2e,
                {n: u for n, u, _b in END_TO_END}, extra)
    if traced is not None:
        values = layer_metrics(args.workload, traced, plain)
        units = {n: u for n, u, _b in per_layer()}
        absent = [f"absent span: {t}" for t in traced["absent"]]
        print_table("per-layer (traced run; per work unit)", values, units, absent)
    else:
        values = e2e
        units = {n: u for n, u, _b in END_TO_END}
    print(json.dumps({
        "correct": failed == 0, "attempted": int(attempted), "failed": int(failed),
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
