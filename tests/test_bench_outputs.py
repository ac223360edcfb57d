"""Byte-exact benchmark outputs: one sha256 per workload over its seed-1 ops.

The op lists come from perfbench's own ``bench_ops.generate`` and each op runs
through its ``run.execute``, as a five-round (``--seconds 20``) run makes
them.  A digest covers every op's label, its exit code or returned value,
its stdout and stderr, and any exception it raised, so a change that must
leave the outputs as they were is checked on all 265 ops, the failing ones
(the digit limit and the float range) included.
"""

import hashlib
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import bench_ops  # noqa: E402
import run  # noqa: E402

SEED, ROUNDS = 1, 5

# workload -> (ops, sha256 of their outcomes)
PINNED = {
    "exact_count": (90, "6584dfe2713a4ce9f4024a5eb3b6d18a4a715b3c633abfaeb68e240883cd0b0e"),
    "correlation_sweep": (85, "89e1af03ea45a8803d0841775492f7c9a9ff19768e2d6e814bda574bfed9bc84"),
    "brute_force": (90, "fa37a3f5522fff23ee3bdc339b8fb0b3c9134a49d4af947148c449267e36398a"),
}


@pytest.fixture(scope="module")
def hh():
    return SimpleNamespace(**{name: importlib.import_module(f"holeyhex.{name}")
                              for name in run.MODULES})


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_the_seed_1_benchmark_outputs_are_pinned(hh, workload):
    ops = bench_ops.generate(hh, workload, SEED, ROUNDS)
    digest = hashlib.sha256()
    for op in ops:
        outcome = run.execute(hh, op)
        digest.update(repr((op.label(), outcome.result, outcome.out, outcome.err,
                            repr(outcome.error))).encode())
    assert (len(ops), digest.hexdigest()) == PINNED[workload]
