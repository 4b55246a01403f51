"""Shared pieces of the benchmark: inputs, the oracle, statistics, output.

The program under test is imported from the checkout's ``src`` directory,
so the benchmark runs from a plain source checkout with nothing installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = Path(__file__).resolve().parent / ".cache"

# The library's default exact configuration: every workload runs it.
ALGORITHM = "STR-L2"
THETA = 0.6
BACKEND = "auto"


def import_program():
    """Import the program from the checkout; fail loudly when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    return repro


def program_env() -> dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# -- inputs ------------------------------------------------------------------


def generate(profile: str, count: int, seed: int) -> list:
    """The profile generator's stream, unchanged."""
    from repro import generate_profile_corpus

    return generate_profile_corpus(profile, seed=seed, num_vectors=count)


def timestamp_inversions(stream) -> int:
    """Adjacent pairs whose timestamp decreases.

    ``bursty_timestamps`` documents non-decreasing output but emits a
    decrease whenever a burst starts inside the previous burst's spread;
    the benchmark counts and prints these instead of repairing them.
    """
    return sum(1 for before, after in zip(stream, stream[1:])
               if after.timestamp < before.timestamp)


# -- oracle ------------------------------------------------------------------
#
# The oracle is the pure-Python reference backend on the same input.  It
# runs in a child process so that its memory never reaches the measured
# process's peak RSS, and its result is cached per input key: two
# workloads on one stream (hashtags-grow and hashtags-shard2) and repeated
# runs of one seed compute it once.


def _reference_pairs(stream, decay: float) -> list[list]:
    """Per vector (in stream order), the pairs its ``process`` call emits."""
    from repro import create_join

    join = create_join(ALGORITHM, THETA, decay, backend="python")
    emitted = [[pair_record(pair) for pair in join.process(vector)]
               for vector in stream]
    if join.flush():
        raise RuntimeError("STR reference join buffered pairs at flush")
    return emitted


def pair_record(pair) -> tuple[int, int, str]:
    """A pair as compared with the oracle: keys and the similarity's bits."""
    return (pair.id_a, pair.id_b, pair.similarity.hex())


def oracle(key: str, streams: list, decay: float) -> list[list[list]]:
    """Reference pairs per vector for each stream (computed once per key).

    The key names the input; the program's source digest is added to it,
    so an edited program never reads a stale oracle.
    """
    key = f"{key}/src-{_source_digest()}"
    CACHE.mkdir(exist_ok=True)
    path = CACHE / f"oracle-{hashlib.sha1(key.encode()).hexdigest()[:16]}.json"
    if not path.is_file():
        payload = pickle.dumps((key, streams, decay))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--oracle"],
            input=payload, capture_output=True, env=program_env(),
            cwd=ROOT, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError("oracle process failed:\n"
                               + proc.stderr.decode(errors="replace"))
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(proc.stdout)
        tmp.replace(path)
    data = json.loads(path.read_text())
    if data["key"] != key:
        raise RuntimeError(f"oracle cache {path} holds another input")
    return [[[tuple(p) for p in per_vector] for per_vector in stream]
            for stream in data["pairs"]]


def drop_one_pair(records: list) -> None:
    """Self-test hook: remove one emitted pair so the oracle must object."""
    for pairs in records:
        if pairs:
            pairs.pop()
            return
    raise RuntimeError("no pair to drop: the input produced no pairs")


def mismatched_vectors(emitted: list[list], expected: list[list]) -> int:
    """Vectors whose emitted pair set differs from the oracle's.

    ``None`` stands for a call that raised: it matches nothing.
    """
    bad = abs(len(emitted) - len(expected))
    for got, want in zip(emitted, expected):
        if got is None or sorted(got) != sorted(want):
            bad += 1
    return bad


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- provenance and output ---------------------------------------------------


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "none (not a git checkout)"


def _source_digest() -> str:
    """SHA-1 over the program's Python sources (identifies the code run)."""
    digest = hashlib.sha1()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(*, seed: int, stream_length: int, backend: str,
               **extra) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha1": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "seed": seed,
        "stream_length": stream_length,
        **extra,
    }


def emit(result: dict, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the human-readable table, then the one-line JSON result."""
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    result = dict(result)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result), flush=True)


def _oracle_main() -> int:
    """Child-process entry: pickled (key, streams, decay) in, JSON out."""
    import_program()
    key, streams, decay = pickle.loads(sys.stdin.buffer.read())
    pairs = [_reference_pairs(stream, decay) for stream in streams]
    json.dump({"key": key, "pairs": pairs}, sys.stdout)
    return 0


if __name__ == "__main__" and sys.argv[1:] == ["--oracle"]:
    sys.exit(_oracle_main())
