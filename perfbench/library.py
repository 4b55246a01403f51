"""Library-tier workloads: hashtags-grow, tweets-expire, hashtags-shard2.

One run feeds the same generated stream through ``create_join`` pass after
pass until ``--seconds`` have elapsed.  Every pass builds a fresh join (its
set-up time is one ``setup_s`` sample), times each ``process()`` call, and
is checked vector by vector against the reference backend's pairs once its
clock has stopped.

In a traced run, traced and untraced passes alternate.  A traced pass
wraps the resolved kernel in the public ``ProfilingKernel`` (the sharded
coordinator's kernel cannot be wrapped; its ``stage_seconds`` stand in)
and reads the counters the layers already expose; the ratio of the two
kinds of pass is ``obs.trace_overhead``.

hashtags-shard2 is not in ``BENCHMARK.json``: three busy processes on a
shared 2-core host spread too widely from run to run (see README.md).
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import time
import traceback
from dataclasses import dataclass

from repro import create_join
from repro.backends import get_backend, warmup_backend
from repro.backends.profiling import ProfilingKernel

from common import (ALGORITHM, BACKEND, THETA, drop_one_pair, generate,
                    median, mismatched_vectors, oracle, pair_record,
                    percentile, ratio, timestamp_inversions)


@dataclass(frozen=True)
class LibrarySpec:
    profile: str
    count: int
    decay: float
    workers: int | None = None


# Stream lengths keep one pass to a few seconds on a 2-core machine, so a
# run holds several passes, and keep the reference oracle under ~10 s.
WORKLOADS = {
    "hashtags-grow": LibrarySpec("hashtags", 2500, 2e-5),
    "tweets-expire": LibrarySpec("tweets", 10_000, 2e-3),
    "hashtags-shard2": LibrarySpec("hashtags", 2500, 2e-5, workers=2),
}
TINY_COUNT = 200

# Extra set-ups before each pass, so that ``setup_s`` is a median of many
# samples spread over the whole run, like the passes it is compared with.
SETUPS_PER_PASS = {None: 20, 2: 2}


def _make_join(spec: LibrarySpec, traced: bool):
    """Build a join ready for its first vector; return (join, kernel)."""
    if spec.workers is not None:
        join = create_join(ALGORITHM, THETA, spec.decay, backend=BACKEND,
                           workers=spec.workers)
        # A round trip to every worker: set-up ends when they all answer.
        join.shard_counters()
        return join, None
    kernel = ProfilingKernel(get_backend(BACKEND)()) if traced else None
    join = create_join(ALGORITHM, THETA, spec.decay,
                       backend=kernel if traced else BACKEND)
    warmup_backend(BACKEND)
    return join, kernel


def _close(join) -> None:
    closer = getattr(join, "close", None)
    if closer is not None:
        closer()


def _workers_peak_rss_mb() -> float:
    """Summed VmHWM of this process's live multiprocessing children."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass  # the child exited between listing and reading
    return total_kb / 1024.0


def _timed_pass(join, stream, latencies: list):
    """Feed the stream once; return (wall seconds, pairs per call).

    A call that raises is counted as failed through its ``None`` entry.
    """
    emitted = []
    errors = 0
    clock = time.perf_counter
    start = clock()
    for vector in stream:
        before = clock()
        try:
            pairs = join.process(vector)
        except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
            if not errors:
                traceback.print_exc()
            errors += 1
            pairs = None
        latencies.append(clock() - before)
        emitted.append(pairs)
    return clock() - start, emitted


def run(workload: str, *, seed: int, seconds: float, trace: bool,
        tiny: bool, plant_mismatch: bool) -> dict:
    spec = WORKLOADS[workload]
    count = TINY_COUNT if tiny else spec.count
    stream = generate(spec.profile, count, seed)
    inversions = timestamp_inversions(stream)
    expected = oracle(f"library/{spec.profile}/{count}/{spec.decay!r}/{seed}",
                      [stream], spec.decay)[0]

    # The inputs and the oracle live for the whole run: keep them out of
    # the cyclic collector, which would otherwise charge the program for
    # scanning the benchmark's own objects.
    gc.collect()
    gc.freeze()
    setups: list[float] = []
    latencies: list[list[float]] = []
    walls = {False: [], True: []}
    layers: list[dict] = []
    attempted = failed = 0
    rss_mb = None
    deadline = time.perf_counter() + seconds
    traced = False
    while not walls[False] or (trace and not walls[True]) \
            or time.perf_counter() < deadline:
        for _ in range(SETUPS_PER_PASS[spec.workers]):
            started = time.perf_counter()
            join, _ = _make_join(spec, traced=False)
            setups.append(time.perf_counter() - started)
            _close(join)
            del join
        started = time.perf_counter()
        join, kernel = _make_join(spec, traced)
        setups.append(time.perf_counter() - started)
        pass_latencies = []
        wall, emitted = _timed_pass(join, stream, pass_latencies)
        walls[traced].append(wall)
        if not traced:
            latencies.append(pass_latencies)
        if rss_mb is None:
            # The first pass's peak: later passes reuse freed memory
            # unevenly, so the peak would grow with the number of passes.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if spec.workers is not None:
                rss_mb += _workers_peak_rss_mb()
        if traced:
            layers.append(_layer_sample(join, kernel, pass_latencies))
        _close(join)
        del join, kernel

        records = [None if pairs is None else [pair_record(p) for p in pairs]
                   for pairs in emitted]
        if plant_mismatch:
            drop_one_pair(records)
            plant_mismatch = False
        attempted += len(stream)
        failed += mismatched_vectors(records, expected)
        if trace:
            traced = not traced

    untraced = walls[False]
    end_to_end = {
        "throughput_vps": median(count / wall for wall in untraced),
        "latency_p50_ms": median(percentile(p, 50) for p in latencies) * 1e3,
        "latency_p99_ms": median(percentile(p, 99) for p in latencies) * 1e3,
        "peak_rss_mb": rss_mb,
        "setup_s": median(setups),
    }
    per_layer = {}
    if trace:
        per_layer = _summarise_layers(layers)
        per_layer["obs.trace_overhead"] = ratio(median(walls[True]),
                                                median(untraced))
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "inputs": {"stream": f"{spec.profile} x{count}", "decay": spec.decay,
                   "timestamp_inversions": inversions},
        "samples": {"passes": len(untraced),
                    "traced_passes": len(walls[True]),
                    "latency_samples": sum(map(len, latencies)),
                    "setup_samples": len(setups)},
        "stream_length": count,
    }


def _layer_sample(join, kernel, pass_latencies: list[float]) -> dict:
    """Per-layer numbers of one traced pass, read from outside the layers."""
    stats = join.stats
    sample = {
        "core.process_s": sum(pass_latencies),
        "indexes.entries_traversed": stats.entries_traversed,
        "indexes.candidates_generated": stats.candidates_generated,
        "indexes.full_similarities": stats.full_similarities,
        "indexes.entries_indexed": stats.entries_indexed,
        "indexes.entries_pruned": stats.entries_pruned,
        "indexes.pairs_output": stats.pairs_output,
        "indexes.max_index_size": stats.max_index_size,
    }
    if kernel is not None:
        seconds, calls = kernel.stage_seconds, kernel.stage_calls
        stages = {f"backends.{stage}_s": seconds[stage]
                  for stage in ("scan", "filter", "verify", "maintenance")}
        sample["backends.scan_calls"] = calls["scan"]
    else:
        indexed = [shard.entries_indexed for shard in join.shard_counters()]
        sample["shard.max_shard_share"] = ratio(max(indexed), sum(indexed))
        stages = {f"shard.{stage}_s": value
                  for stage, value in join.stage_seconds.items()}
    sample.update(stages)
    # The unattributed remainder of process time, shown rather than hidden.
    sample["core.driver_s"] = sample["core.process_s"] - sum(stages.values())
    return sample


def _summarise_layers(samples: list[dict]) -> dict:
    """Median of each per-pass number, then the derived ratios."""
    out = {name: median(sample[name] for sample in samples)
           for name in samples[0]}
    out["indexes.candidates_per_entry"] = ratio(
        out["indexes.candidates_generated"], out["indexes.entries_traversed"])
    out["indexes.verify_yield"] = ratio(out["indexes.pairs_output"],
                                        out["indexes.full_similarities"])
    if "backends.scan_s" in out:
        out["backends.scan_ns_per_entry"] = 1e9 * ratio(
            out["backends.scan_s"], out["indexes.entries_traversed"])
        out["backends.scan_us_per_call"] = 1e6 * ratio(
            out["backends.scan_s"], out.pop("backends.scan_calls"))
        out["backends.verify_ns_per_candidate"] = 1e9 * ratio(
            out["backends.verify_s"], out["indexes.candidates_generated"])
        out["backends.maintenance_ns_per_entry"] = 1e9 * ratio(
            out["backends.maintenance_s"], out["indexes.entries_indexed"])
    return out
