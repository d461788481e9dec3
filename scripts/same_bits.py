#!/usr/bin/env python3
"""Fingerprints of the program's output bits on the benchmark's op streams.

Prints three lines: the digest of the first 300 construct_verify ops of
seed 1, the RHS calls of their profile solves summed, and the digest of
the first 12 flow_monotone ops of seed 1.  Each digest is the sha256 of
the concatenated per-op digests that ``bench/workloads.py`` forms, run
untimed and untraced.  A change that keeps every bit prints the same
three lines.  The bits may depend on the host's BLAS kernels, so the
script compares nothing itself: run it on both commits on one host.

Usage (from the root of a checkout):
    PYTHONPATH=src python scripts/same_bits.py
"""

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracing import NullTracer  # noqa: E402
from workloads import ConstructVerify, FlowMonotone  # noqa: E402

SEED = 1
CONSTRUCT_OPS, FLOW_OPS = 300, 12


def fingerprint(workload, n_ops: int) -> tuple:
    """The sha256 (16 hex digits) of the first ``n_ops`` op digests of seed
    SEED, and their RHS calls summed."""
    h, rhs_calls = hashlib.sha256(), 0
    for spec in itertools.islice(workload.stream(SEED), n_ops):
        result = workload.check(workload.run(spec, NullTracer()))
        h.update(result.digest.encode())
        rhs_calls += result.counts.get("rhs_calls", 0)
    return h.hexdigest()[:16], rhs_calls


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        digest, rhs_calls = fingerprint(ConstructVerify(Path(workdir)), CONSTRUCT_OPS)
        print(f"construct_verify {CONSTRUCT_OPS} ops, seed {SEED}: {digest}")
        print(f"construct_verify {CONSTRUCT_OPS} ops, seed {SEED}: {rhs_calls} RHS calls")
        digest, _ = fingerprint(FlowMonotone(Path(workdir)), FLOW_OPS)
        print(f"flow_monotone {FLOW_OPS} ops, seed {SEED}: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
