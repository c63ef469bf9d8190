"""The timed section of one benchmark run, executed in a fresh process.

``run.py`` writes the inputs and a JSON spec to a work directory, then
starts ``python3 worker.py SPEC`` so that importing the program, its
memory high-water mark and its set-up belong to this process alone.
The worker imports ``repro`` from the ``src`` directory named in the
spec, calls only the public functions of the layers being timed, and
writes what it measured to ``spec["out"]``.  It does not check answers;
``run.py`` does that against the benchmark's own oracle.

``python3 worker.py --import-only SRC`` prints the seconds taken to
import the program in a fresh process (one ``setup_s`` sample).
"""

from __future__ import annotations

import asyncio
import contextlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
from metrics import SIM_LABELS, SIM_NODES
from oracle import K, digest
from tracer import Site, Tracer

clock = time.perf_counter

CALIBRATE_PER_STEP = 2       # timed calibration kernels before each step of a batch unit
CALIBRATE_RATE = 2.0         # timed calibration kernels per second on the store's event loop

#: Everything a workload touches; importing these is the program's start-up.
PROGRAM_MODULES = ("repro", "repro.api", "repro.apps.streaming", "repro.apps.store",
                   "repro.ooc", "repro.lsm", "repro.serve")


def import_program(src: Path) -> float:
    """Import the program from *src*; returns seconds.  Refuses any other copy."""
    sys.path.insert(0, str(src))
    t = clock()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    dt = clock() - t
    origin = Path(sys.modules["repro"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"repro was imported from {origin}, not from {src}")
    return dt


# -- traced sites -------------------------------------------------------------

def _size_after(args, kwargs, result, before):
    return {"bytes": os.path.getsize(args[0])}


def _wal_bytes_before(args, kwargs):
    return args[0].nbytes


def _new_run_bytes(args, kwargs, result, before):
    return {"bytes": sum(r.nbytes for r in args[0].runs if r.path.name not in before)}


SITES = [
    # count-file: the streaming counter and the database writer
    Site("seq.read_fastx", "repro.apps.streaming:read_fastx", generator=True),
    Site("seq.encode_batch", "repro.apps.streaming:encode_batch"),
    Site("seq.split_superkmers_flat", "repro.apps.streaming:split_superkmers_flat",
         measure=lambda a, kw, r, b: {"superkmers": r.n_superkmers}),
    Site("seq.count_superkmer_batch", "repro.apps.streaming:count_superkmer_batch"),
    Site("apps.merge_sorted_counts", "repro.apps.streaming:merge_sorted_counts"),
    Site("apps.save_counts", "repro.apps.store:save_counts", measure=_size_after),
    # ooc-spill: pass 1 (spill) and pass 2 (per-bin recount)
    Site("ooc.add_reads", "repro.ooc.spill:BinWriter.add_reads"),
    Site("seq.split_superkmers_batch", "repro.ooc.spill:split_superkmers_batch"),
    Site("seq.pack_spans", "repro.ooc.spill:pack_spans"),
    Site("ooc.count_bin", "repro.ooc.count:count_bin"),
    Site("ooc.superkmer_kmers", "repro.ooc.count:superkmer_kmers"),
    Site("sort.hybrid_sort", "repro.ooc.count:hybrid_sort"),
    # store-mixed: LSM write path, read path and the serving cache
    Site("lsm.ingest", "repro.lsm.store:LsmStore.ingest",
         measure=lambda a, kw, r, b: {"input_bytes": int(np.asarray(a[1]).size)}),
    Site("lsm.wal_append", "repro.lsm.wal:WriteAheadLog.append",
         before=_wal_bytes_before,
         measure=lambda a, kw, r, b: {"bytes": a[0].nbytes - b}),
    Site("lsm.absorb_count", "repro.lsm.store:serial_count"),
    Site("lsm.flush", "repro.lsm.store:LsmStore.flush",
         measure=lambda a, kw, r, b: {"bytes": r.nbytes if r is not None else 0}),
    Site("lsm.compact", "repro.lsm.store:LsmStore.compact",
         before=lambda a, kw: {r.path.name for r in a[0].runs},
         measure=_new_run_bytes),
    Site("lsm.get", "repro.lsm.store:LsmStore.get",
         measure=lambda a, kw, r, b: {"keys": len(a[1]),
                                      "probes": len(a[1]) * (1 + len(a[0].runs))}),
    Site("serve.invalidate", "repro.serve.cache:HotKeyCache.invalidate_many",
         measure=lambda a, kw, r, b: {"dropped": r}),
    # sim-scaling: the simulated algorithms and their per-PE k-mer extraction
    Site("core.dakc_count", "repro.api:dakc_count"),
    Site("core.bsp_count", "repro.baselines.pakman:bsp_count"),
    Site("core.bsp_count", "repro.baselines.hysortk:bsp_count"),
    Site("seq.extract_kmers_from_reads", "repro.core.dakc:extract_kmers_from_reads"),
    Site("seq.extract_kmers_from_reads", "repro.core.bsp:extract_kmers_from_reads"),
]


# -- workloads ------------------------------------------------------------------

def repeat(seconds: float, tracer: Tracer | None, steps: list) -> dict:
    """Time a unit of work again and again until *seconds* have passed.

    A unit is the list *steps*, run in order; each step is a call into the
    program that returns ``[(counts, extra), ...]``.  The unit's time is the
    sum of its steps' times.  Before every step the calibration kernel
    runs, untimed and untraced, so its samples are spread over the unit.
    Digests of the counts are taken outside the timed region.  With a
    tracer, every second unit runs traced, so traced and untraced units see
    the same host conditions and their ratio is the trace overhead.
    """
    out = {"op_s": [], "traced_op_s": [], "digests": [], "extras": [], "ref_s": []}
    deadline = clock() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        dt, results = 0.0, []
        for step in steps:
            out["ref_s"] += calibrate.samples(CALIBRATE_PER_STEP)
            with tracer if traced else contextlib.nullcontext():
                t = clock()
                results += step()
                dt += clock() - t
        out["traced_op_s" if traced else "op_s"].append(dt)
        out["digests"] += [digest(c.kmers, c.counts) for c, _x in results]
        out["extras"].append([x for _c, x in results])
        i += 1
        if clock() >= deadline and (tracer is None or i >= 2):
            return out


def count_file(spec: dict, seconds: float, tracer: Tracer | None) -> dict:
    streaming = importlib.import_module("repro.apps.streaming")
    store = importlib.import_module("repro.apps.store")
    saved = Path(spec["dir"]) / "counts.npz"
    last = {}

    def count():
        last["counts"] = streaming.count_file_streaming(
            spec["fastq"], K, batch_records=spec["batch_records"])
        return [(last["counts"], None)]

    def save():
        store.save_counts(saved, last["counts"])
        return []

    out = repeat(seconds, tracer, [count, save])
    del out["extras"]
    return dict(out, saved=str(saved))


def ooc_spill(spec: dict, seconds: float, tracer: Tracer | None) -> dict:
    ooc = importlib.import_module("repro.ooc")
    reads = np.load(spec["reads"])
    bins = Path(spec["dir"]) / "bins"

    def count():
        stats = ooc.OocStats()
        counts = ooc.ooc_count(reads, K, n_bins=spec["n_bins"],
                               memory_bytes=spec["memory_bytes"], workdir=bins, stats=stats)
        shutil.rmtree(bins)
        return [(counts, stats)]

    out = repeat(seconds, tracer, [count])
    stats = out.pop("extras")[-1][0]
    out["layer"] = {"ooc.chunks_per_bin": stats.n_flushes / max(1, stats.n_bins_used),
                    "ooc.flushes": stats.n_flushes,
                    "ooc.spill_bytes_per_kmer": stats.bytes_spilled / max(1, stats.n_kmers)}
    return out


def sim_scaling(spec: dict, seconds: float, tracer: Tracer | None) -> dict:
    """One unit is a sweep: every algorithm at every node count, 9 steps."""
    api = importlib.import_module("repro.api")
    reads = np.load(spec["reads"])

    def point(algorithm: str, nodes: int):
        def step():
            run = api.count_kmers(reads, K, algorithm=algorithm, nodes=nodes)
            return [(run.counts, [algorithm, nodes, run.stats.sim_time,
                                  run.stats.total_bytes_sent])]
        return step

    out = repeat(seconds, tracer,
                 [point(algorithm, nodes) for algorithm in SIM_LABELS for nodes in SIM_NODES])
    out["sim"] = out.pop("extras")
    return out


def _open_store(spec: dict, path: Path):
    lsm = importlib.import_module("repro.lsm")
    return lsm.LsmStore(path, K, config=lsm.LsmConfig(**spec["lsm_config"]))


def preload_store(spec: dict) -> tuple[object, list[float], list[float]]:
    """Load the base half into fresh stores several times; keep the last open.

    Returns the open store, the seconds of each load and the calibration
    kernel timings taken between loads.
    """
    base = np.load(spec["preload"])
    step = spec["preload_batch"]
    samples, store, ref_s = [], None, []
    for i in range(spec["setup_repeats"]):
        if store is not None:
            store.close()
        ref_s += calibrate.samples(CALIBRATE_PER_STEP)
        t = clock()
        store = _open_store(spec, Path(spec["dir"]) / f"store-{i}")
        for lo in range(0, base.shape[0], step):
            store.ingest(base[lo:lo + step])
        samples.append(clock() - t)
    return store, samples, ref_s


async def store_mixed(spec: dict, store, tracer: Tracer | None) -> dict:
    """Open-loop ingest beside an open-loop Zipf lookup stream, on one event loop.

    The schedule (batches and keys at fixed rates) was sized by ``run.py``
    to last the run's seconds; a traced run replays it whole under the tracer.
    A third stream runs the calibration kernel at a fixed rate on the same
    loop, so it sees the host conditions of the schedule.
    """
    serve = importlib.import_module("repro.serve")
    batches = np.load(spec["ingest"]).reshape(-1, spec["ingest_batch"], spec["read_len"])
    keys = np.load(spec["keys"])
    ingest_due, lookup_due = np.load(spec["ingest_due"]), np.load(spec["lookup_due"])

    loop = asyncio.get_running_loop()
    acked = 0
    ingest_s, ingest_lat = [], []
    lookup = {name: np.zeros(keys.size, dtype=dtype) for name, dtype in (
        ("answer", np.int64), ("issued_at", np.int64), ("done_at", np.int64),
        ("latency", np.float64), ("status", np.int8))}   # status: 0 ok, 1 refused, 2 error
    lateness, errors, ref_s = [], [], []
    tasks = set()
    rejected = 0

    async def one(i: int, due: float) -> None:
        nonlocal rejected
        lookup["issued_at"][i] = acked
        try:
            lookup["answer"][i] = await engine.query(int(keys[i]))
        except serve.Overloaded:
            lookup["status"][i] = 1
            rejected += 1
        except Exception as exc:   # a crashed request is a failed one; keep the load running
            lookup["status"][i] = 2
            errors.append(repr(exc))
        lookup["done_at"][i] = acked
        lookup["latency"][i] = loop.time() - due

    async def ingest_stream(t0: float) -> None:
        nonlocal acked
        for j, due in enumerate(ingest_due):
            await asyncio.sleep(max(0.0, t0 + due - loop.time()))
            t = clock()
            store.ingest(batches[j])
            ingest_s.append(clock() - t)
            acked += 1
            ingest_lat.append(loop.time() - (t0 + due))

    async def calibrate_stream(t0: float) -> None:
        end = max(ingest_due[-1], lookup_due[-1])
        for due in np.arange(0.5 / CALIBRATE_RATE, end, 1 / CALIBRATE_RATE):
            await asyncio.sleep(max(0.0, t0 + due - loop.time()))
            ref_s.extend(calibrate.samples(1))

    async def lookup_stream(t0: float) -> None:
        for i, due in enumerate(lookup_due):
            await asyncio.sleep(max(0.0, t0 + due - loop.time()))
            lateness.append(loop.time() - (t0 + due))
            task = asyncio.create_task(one(i, t0 + due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)

    # The tracer is installed before the engine starts so that the cache
    # invalidation hook the engine subscribes is the traced one.
    with tracer if tracer is not None else contextlib.nullcontext():
        cache = serve.HotKeyCache(spec["cache_capacity"])
        engine = serve.QueryEngine(store.read_view(), cache=cache)
        t = clock()
        await engine.start()
        engine_s = clock() - t
        cpu = time.process_time()
        t0 = loop.time() + 0.01
        await asyncio.gather(ingest_stream(t0), lookup_stream(t0), calibrate_stream(t0))
        while tasks:
            await asyncio.gather(*list(tasks))
        cpu = time.process_time() - cpu
        await engine.stop()
    peak_rss_mb = peak_rss()
    snap = store.snapshot()
    out = {"op_s": lookup["latency"].tolist(), "cpu_s": cpu, "units": 1,
           "engine_s": engine_s, "ingest_s": ingest_s, "ingest_latency_s": ingest_lat,
           "lateness_s": lateness, "rejected": rejected, "errors": errors[:5],
           "ref_s": ref_s,
           "peak_rss_mb": peak_rss_mb,
           "lookups": {name: arr.tolist() for name, arr in lookup.items()},
           "digests": [digest(snap.kmers, snap.counts)],
           "layer": {"serve.cache_hit_rate": cache.hit_rate, "serve.rejected": rejected}}
    store.close()
    return out


# -- entry point ----------------------------------------------------------------

def peak_rss() -> float:
    """High-water resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_values(tracer: Tracer) -> dict:
    """Per-span totals of one traced run, keyed ``<span>.<measure>``."""
    out = {}
    for span, st in tracer.spans.items():
        out[f"{span}.calls"] = st.calls
        out[f"{span}.busy_s"] = st.busy_s
        out[f"{span}.self_s"] = st.self_s
        out[f"{span}.max_s"] = st.max_s
        for name, amount in st.counters.items():
            out[f"{span}.{name}"] = amount
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--import-only"]:
        print(json.dumps({"import_s": import_program(Path(argv[1]))}))
        return 0
    spec = json.loads(Path(argv[0]).read_text())
    setup = {"import_s": import_program(Path(spec["src"]))}
    tracer = Tracer(SITES) if spec["trace"] else None
    workload = spec["workload"]
    if workload == "store-mixed":
        store, setup["preload_s"], setup["ref_s"] = preload_store(spec)
        result = asyncio.run(store_mixed(spec, store, tracer))
        setup["engine_s"] = result.pop("engine_s")
    else:
        run = {"count-file": count_file, "ooc-spill": ooc_spill,
               "sim-scaling": sim_scaling}[workload]
        result = run(spec, spec["seconds"], tracer)
        result["peak_rss_mb"] = peak_rss()
        result["units"] = len(result["traced_op_s"]) if tracer else len(result["op_s"])
    result["setup"] = setup
    if tracer is not None:
        result["trace"] = layer_values(tracer)
        result["absent"] = tracer.absent
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
