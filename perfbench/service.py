"""service-tenants: 8 sessions across 2 tenants on one pooled server.

Not in ``BENCHMARK.json``: on a shared 2-core host its latencies move
several-fold with the host's scheduling delays (see README.md).  Run it by
hand with the same command.

The load comes from this one process, over two connections to a
``sssj serve --pool-workers 2`` subprocess: a producer that opens the
sessions and ingests, and a consumer that polls ``results``.  One thread
drives both in turn, so at most one request is in flight.

* Set-up (``setup_s``): spawn the server, wait for its ``listening``
  line, open all sessions.  Done ``SETUPS`` times; the last server is
  measured.
* Phase 1, open loop: vectors are due at a fixed aggregate rate well below
  saturation, round-robin over the sessions.  A vector's latency runs from
  its due time until a consumer poll first shows it processed, so a late
  generator is charged for the wait (``bench.generator_lag_p99_ms``
  reports how late it ran).
* Phase 2, saturation: rounds of ``ROUND`` vectors per session, sent in
  ``CHUNK``-vector ingests with ``block`` backpressure; a round ends when
  a poll shows every session has processed everything sent.
  ``throughput_vps`` is the median over rounds.

Each session's vectors are tweets-shaped (one generated tweets stream,
each session cycling through it from its own offset), with ids 0, 1, ...
and timestamps from the load schedule: ``STEP`` stream-time units apart,
never decreasing.  With tweets-expire's decay the horizon then spans about
as many vectors as there, and a content cycle of ``CONTENT`` vectors is
longer than the horizon, so repeats never pair.  Every pair the consumer
receives is checked against the reference backend's pairs for the prefix
of the session's stream that was sent.
"""

from __future__ import annotations

import gc
import os
import queue
import subprocess
import sys
import threading
import time
from collections import defaultdict

from repro import SparseVector
from repro.service.client import ServiceClient, ServiceClientError

from common import (ALGORITHM, ROOT, THETA, drop_one_pair, generate,
                    median, mismatched_vectors, oracle, pair_record,
                    percentile, program_env, ratio, timestamp_inversions)

SESSIONS = 8
TENANTS = 2
POOL_WORKERS = 2
DECAY = 2e-3
STEP = 0.5           # the tweets profile's mean rate: two vectors per unit
CONTENT = 1600       # tweets generated per run, cycled through per session
LENGTH = 4000        # vectors available per session
OFFERED_VPS = 200    # phase-1 aggregate rate, about a tenth of saturation
OPEN_LOOP_SHARE = 0.6
ROUND = 150
CHUNK = 50
SETUPS = 5
TINY = {"CONTENT": 200, "LENGTH": 300, "ROUND": 40}


def _streams(seed: int, content: int, length: int):
    """Per-session streams and the inversion count of the generated tweets."""
    base = generate("tweets", content, seed)
    streams = []
    for session in range(SESSIONS):
        offset = session * content // SESSIONS
        streams.append([
            SparseVector(k, k * STEP, base[(k + offset) % content],
                         normalize=False)
            for k in range(length)])
    return streams, timestamp_inversions(base)


class _Server:
    """A ``sssj serve`` subprocess and the producer connection to it."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--pool-workers", str(POOL_WORKERS)],
            stdout=subprocess.PIPE, env=program_env(), cwd=ROOT)
        lines: queue.Queue = queue.Queue()
        # Reads stdout until EOF so the server never blocks on the pipe.
        self._reader = threading.Thread(target=self._read, args=(lines,),
                                        daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_listening(lines)
            self.producer = ServiceClient(port=self.port)
        except BaseException:
            self.kill()
            raise

    @staticmethod
    def _wait_listening(lines: queue.Queue) -> int:
        deadline = time.monotonic() + 60
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server printed no listening line") from None
            if line is None:
                raise RuntimeError("server exited before listening")
            if line.startswith("sssj service listening on "):
                return int(line.rsplit(":", 1)[1])

    def _read(self, lines: queue.Queue) -> None:
        for raw in self.proc.stdout:
            lines.put(raw.decode(errors="replace").strip())
        lines.put(None)

    def open_sessions(self) -> None:
        for session in range(SESSIONS):
            self.producer.open_session(
                _name(session), theta=THETA, decay=DECAY,
                algorithm=ALGORITHM, tenant=f"tenant{session % TENANTS}",
                normalize=False, backpressure="block", checkpoint=False)

    def stop(self) -> float:
        """Shut the server down, reap it, and return its peak RSS in MB."""
        try:
            self.producer.shutdown()
        finally:
            self.producer.close()
        deadline = time.monotonic() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("server did not exit after shutdown")
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=10)


def _name(session: int) -> str:
    return f"s{session}"


class _Load:
    """The load generator: one thread driving both connections in turn.

    With at most one request in flight, polling cannot crowd out the
    server's own work however many sessions have vectors pending.
    """

    def __init__(self, server: _Server, streams) -> None:
        self.producer = server.producer
        self.consumer = ServiceClient(port=server.port)
        self.streams = streams
        self.sent = [0] * SESSIONS
        self.seen = [0] * SESSIONS
        self.cursor = [0] * SESSIONS
        self.pairs = [[] for _ in range(SESSIONS)]
        self.due = [[0.0] * len(stream) for stream in streams]
        self.latencies: list[float] = []
        self.open_loop = True
        self.tracing = False
        self.ingest_rtt: list[float] = []
        self.results_rtt: list[float] = []
        self.queued_max = 0
        self.requests = 0
        self.failed_requests = 0
        self._next_poll = 0

    def request(self, method, *args, rtts: list | None = None, **kwargs):
        """One protocol request; a raised or refused one counts as failed."""
        self.requests += 1
        started = time.perf_counter()
        try:
            reply = method(*args, **kwargs)
        except ServiceClientError as error:
            self.failed_requests += 1
            print(f"request failed: {error}", file=sys.stderr)
            return None
        if rtts is not None and self.tracing:
            rtts.append(time.perf_counter() - started)
        return reply

    def send(self, session: int, start: int, end: int, chunk: int) -> None:
        self.sent[session] = end
        self.request(self.producer.ingest, _name(session),
                     self.streams[session][start:end], chunk_size=chunk,
                     rtts=None if self.open_loop else self.ingest_rtt)

    def poll(self, session: int) -> None:
        reply = self.request(self.consumer.results, _name(session),
                             cursor=self.cursor[session],
                             rtts=self.results_rtt)
        if reply is None:
            return
        now = time.perf_counter()
        self.pairs[session].extend(reply["pairs"])
        self.cursor[session] = reply["cursor"]
        processed = reply["processed"]
        if self.open_loop:
            due = self.due[session]
            self.latencies.extend(now - due[k]
                                  for k in range(self.seen[session], processed))
        self.seen[session] = max(self.seen[session], processed)
        self.queued_max = max(self.queued_max, reply["queued"])

    def poll_pending(self) -> bool:
        """Poll the next session with unprocessed vectors, round-robin.

        Returns False when every vector sent has been seen processed.
        """
        for step in range(SESSIONS):
            session = (self._next_poll + step) % SESSIONS
            if self.seen[session] < self.sent[session]:
                self._next_poll = session + 1
                self.poll(session)
                return True
        return False

    def wait_processed(self) -> None:
        while self.poll_pending():
            pass


def _open_loop(load: _Load, seconds: float,
               rate: float) -> tuple[list[float], float]:
    """Phase 1; returns (generator lags, offered rate achieved)."""
    total = min(int(seconds * rate), SESSIONS * len(load.streams[0]))
    start = time.perf_counter() + 0.05
    for g in range(total):
        load.due[g % SESSIONS][g // SESSIONS] = start + g / rate
    lags = []
    g = 0
    while g < total:
        due = start + g / rate
        now = time.perf_counter()
        if due > now:
            # Poll while waiting, else spin: a sleeping thread on this
            # host can wake milliseconds late, which would send late.
            load.poll_pending()
            continue
        batch = defaultdict(list)
        while g < total and start + g / rate <= now:
            batch[g % SESSIONS].append(g // SESSIONS)
            g += 1
        for session, positions in batch.items():
            lags.append(time.perf_counter()
                        - load.due[session][positions[0]])
            load.send(session, positions[0], positions[-1] + 1,
                      chunk=len(positions))
    elapsed = time.perf_counter() - start
    load.wait_processed()
    return lags, ratio(total, elapsed)


def _saturating_round(load: _Load, per_session: int) -> float:
    """Phase-2 round; returns its throughput in vectors per second."""
    starts = list(load.sent)
    ends = [min(start + per_session, len(load.streams[s]))
            for s, start in enumerate(starts)]
    started = time.perf_counter()
    for offset in range(0, per_session, CHUNK):
        for session in range(SESSIONS):
            lo = min(starts[session] + offset, ends[session])
            hi = min(lo + CHUNK, ends[session])
            if hi > lo:
                load.send(session, lo, hi, chunk=CHUNK)
    load.wait_processed()
    elapsed = time.perf_counter() - started
    return ratio(sum(ends) - sum(starts), elapsed)


def _measure(load: _Load, seconds: float, trace: bool, length: int,
             per_round: int):
    """Both phases; returns (round throughputs by traced, lags, offered)."""
    load.tracing = trace
    lags, offered = _open_loop(load, seconds * OPEN_LOOP_SHARE, OFFERED_VPS)
    load.open_loop = False
    rounds = {False: [], True: []}
    deadline = time.perf_counter() + seconds * (1 - OPEN_LOOP_SHARE)
    while (not rounds[False] or (trace and not rounds[True])
           or time.perf_counter() < deadline):
        if load.sent[0] >= length:
            break
        load.tracing = trace and not load.tracing
        rounds[load.tracing].append(_saturating_round(load, per_round))
    load.tracing = False
    return rounds, lags, offered


def run(*, seed: int, seconds: float, trace: bool, tiny: bool,
        plant_mismatch: bool) -> dict:
    content = TINY["CONTENT"] if tiny else CONTENT
    length = TINY["LENGTH"] if tiny else LENGTH
    per_round = TINY["ROUND"] if tiny else ROUND
    streams, inversions = _streams(seed, content, length)
    expected = oracle(f"service/{content}/{length}/{SESSIONS}/{seed}",
                      streams, DECAY)

    gc.collect()
    gc.freeze()  # the inputs and the oracle, as in library.py
    setups = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
                server = None
            started = time.perf_counter()
            server = _Server()
            server.open_sessions()
            setups.append(time.perf_counter() - started)
        load = _Load(server, streams)
        rounds, lags, offered = _measure(load, seconds, trace, length,
                                         per_round)
        for session in range(SESSIONS):
            load.request(server.producer.drain, _name(session))
        for session in range(SESSIONS):
            load.poll(session)
        load.consumer.close()
        stats = load.request(server.producer.stats) or {}
        rss_mb = server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()

    mismatched = 0
    for session in range(SESSIONS):
        records = [[] for _ in range(load.sent[session])]
        for pair in load.pairs[session]:
            if pair.id_b < len(records):
                records[pair.id_b].append(pair_record(pair))
            else:
                mismatched += 1
        if plant_mismatch:
            drop_one_pair(records)
            plant_mismatch = False
        mismatched += mismatched_vectors(
            records, expected[session][:load.sent[session]])

    vectors = sum(load.sent)
    untraced = rounds[False]
    end_to_end = {
        "throughput_vps": median(untraced),
        "latency_p50_ms": percentile(load.latencies, 50) * 1e3,
        "latency_p99_ms": percentile(load.latencies, 99) * 1e3,
        "peak_rss_mb": rss_mb,
        "setup_s": median(setups),
    }
    per_layer = _layers(load, stats, lags, offered) if trace else {}
    if trace:
        per_layer["obs.trace_overhead"] = ratio(median(untraced),
                                                median(rounds[True]))
    return {
        "attempted": vectors + load.requests,
        "failed": mismatched + load.failed_requests,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "inputs": {"stream": f"{SESSIONS} sessions of tweets-shaped vectors",
                   "generated_tweets": content,
                   "timestamp_inversions": inversions,
                   "service_timestamps": "load schedule (non-decreasing)",
                   "decay": DECAY, "offered_vps": OFFERED_VPS},
        "samples": {"rounds": len(untraced), "traced_rounds": len(rounds[True]),
                    "latency_samples": len(load.latencies),
                    "setup_samples": len(setups),
                    "vectors_sent": vectors},
        "stream_length": vectors,
    }


def _layers(load: _Load, stats: dict, lags: list[float],
            offered: float) -> dict:
    """Per-layer numbers from protocol replies and the ``stats`` op."""
    sessions = stats.get("sessions", {}).values()
    counters = defaultdict(int)
    for session in sessions:
        for name, value in session["counters"].items():
            if name.startswith("max_"):
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
    pool = stats.get("scheduler", {}).get("pool", {})
    batches = sum(session["batches_flushed"] for session in sessions)
    return {
        "indexes.entries_traversed": counters["entries_traversed"],
        "indexes.candidates_generated": counters["candidates_generated"],
        "indexes.full_similarities": counters["full_similarities"],
        "indexes.entries_indexed": counters["entries_indexed"],
        "indexes.entries_pruned": counters["entries_pruned"],
        "indexes.pairs_output": counters["pairs_output"],
        "indexes.max_index_size": counters["max_index_size"],
        "indexes.candidates_per_entry": ratio(
            counters["candidates_generated"], counters["entries_traversed"]),
        "indexes.verify_yield": ratio(counters["pairs_output"],
                                      counters["full_similarities"]),
        "service.ingest_rtt_p50_ms": percentile(load.ingest_rtt, 50) * 1e3,
        "service.ingest_rtt_p99_ms": percentile(load.ingest_rtt, 99) * 1e3,
        "service.results_rtt_p50_ms": percentile(load.results_rtt, 50) * 1e3,
        "service.queued_max": load.queued_max,
        "service.batch_mean_items": ratio(
            sum(session["processed"] for session in sessions), batches),
        "scheduler.quanta_run": pool.get("quanta_run", 0),
        "scheduler.vectors_per_quantum": ratio(
            pool.get("vectors_processed", 0), pool.get("quanta_run", 0)),
        "bench.generator_lag_p99_ms": percentile(lags, 99) * 1e3,
        "bench.offered_vps": offered,
    }
