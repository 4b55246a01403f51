"""Repository benchmark: end-to-end and per-layer metrics of the join.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload hashtags-grow --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and
the run's provenance.  The exit code is non-zero when any vector's pairs
differ from the reference backend's (the oracle).  See README.md for the
workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import emit, import_program, provenance

END_TO_END = {
    "throughput_vps": "vectors/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Every per-layer metric any workload measures; each workload prints the
# ones on its path.
PER_LAYER = {
    "backends.scan_s": "s",
    "backends.scan_ns_per_entry": "ns",
    "backends.scan_us_per_call": "us",
    "backends.filter_s": "s",
    "backends.verify_s": "s",
    "backends.verify_ns_per_candidate": "ns",
    "backends.maintenance_s": "s",
    "backends.maintenance_ns_per_entry": "ns",
    "core.process_s": "s",
    "core.driver_s": "s",
    "indexes.entries_traversed": "count",
    "indexes.candidates_generated": "count",
    "indexes.full_similarities": "count",
    "indexes.entries_indexed": "count",
    "indexes.entries_pruned": "count",
    "indexes.pairs_output": "count",
    "indexes.candidates_per_entry": "ratio",
    "indexes.verify_yield": "ratio",
    "indexes.max_index_size": "count",
    "shard.exchange_s": "s",
    "shard.replay_s": "s",
    "shard.verify_s": "s",
    "shard.max_shard_share": "ratio",
    "service.ingest_rtt_p50_ms": "ms",
    "service.ingest_rtt_p99_ms": "ms",
    "service.results_rtt_p50_ms": "ms",
    "service.queued_max": "count",
    "service.batch_mean_items": "count",
    "scheduler.quanta_run": "count",
    "scheduler.vectors_per_quantum": "count",
    "bench.generator_lag_p99_ms": "ms",
    "bench.offered_vps": "vectors/s",
    "obs.trace_overhead": "ratio",
}

# BENCHMARK.json lists the first two.  The other two measure the shard and
# service tiers with the same command but spread too widely on a shared
# 2-core host to hold a regression bound (README.md has the figures).
WORKLOADS = ("hashtags-grow", "tweets-expire", "hashtags-shard2",
             "service-tenants")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py); never set by a measured run.
    parser.add_argument("--tiny", action="store_true",
                        help="tiny streams, for the self-test")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="drop one emitted pair before the oracle check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    options = dict(seed=args.seed, seconds=args.seconds,
                   trace=bool(args.trace), tiny=args.tiny,
                   plant_mismatch=args.plant_mismatch)
    # The workload modules import the program at module level, so they are
    # imported only once import_program() has put src/ on the path.
    if args.workload == "service-tenants":
        import service

        outcome = service.run(**options)
    else:
        import library

        outcome = library.run(args.workload, **options)

    from repro.backends import default_backend

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(
        seed=args.seed, stream_length=outcome["stream_length"],
        backend=default_backend(), workload=args.workload)))
    print("inputs: " + json.dumps(outcome["inputs"]))
    print("samples: " + json.dumps(outcome["samples"]))
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"  {'failed_share':<34} {failed / attempted:>14.6g} "
          f"{'ratio':<10} ({failed} of {attempted} operations)")
    if args.trace:
        names, measured = PER_LAYER, outcome["per_layer"]
    else:
        names, measured = END_TO_END, outcome["end_to_end"]
    unknown = set(measured) - set(names)
    if unknown:
        raise RuntimeError(f"metrics without a unit: {sorted(unknown)}")
    metrics = {name: (float(measured[name]), unit)
               for name, unit in names.items() if name in measured}
    correct = failed == 0
    emit({"correct": correct, "attempted": attempted, "failed": failed},
         metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
