"""Single-threaded micro-benchmarks for the convolution primitives.

Times six ops at a configurable geometry (default 56x56 resolution, 128
input/output channels): full-precision and binary 3x3 regular convs,
full-precision and binary 3x3 depth-wise convs, the dual binary depth-wise
conv, and a residual add. The binary ops time what a binary layer's
packed forward runs, conv_multi_dw with one branch (two for the dual op):
the thresholding of the float input, the bit-packed conv, and one scaling
pass into the input's dtype. Inputs are generated outside the timed region
and outputs are consumed so nothing can be elided. Reported latency is the
median over the timed repetitions with the interquartile range; only
relative orderings are meaningful across machines. Each result also
carries the median count of minor page faults per timed call.

One op can also be timed on the inputs of several seeds at once: each
repetition runs every seed's workload in turn, so a change of host speed
during the pass hits all seeds alike and their medians differ only by
their inputs. A single-seed run is the same loop over one workload.
"""

from __future__ import annotations

import csv
import resource
import time
from dataclasses import dataclass

import numpy as np

from .kernels import BinaryConvWeights, ConvSpec, conv_float, conv_multi_dw
from .tensor import pack

OPS = ("float_conv", "binary_conv", "float_dw", "binary_dw", "dual_binary_dw", "residual_add")


@dataclass(frozen=True)
class BenchResult:
    op: str
    geometry: tuple  # (h, w, channels)
    median_ms: float
    iqr_ms: float
    reps: int
    warmup: int
    seed: int = 0
    faults: int = 0  # median minor page faults per timed call

    def csv_row(self):
        h, w, c = self.geometry
        return [self.op, f"{h}x{w}:{c}", f"{self.median_ms:.4f}", f"{self.iqr_ms:.4f}",
                self.reps, self.warmup, self.faults]


def _make_workload(op: str, geometry, seed: int):
    """Pre-generate inputs and return a zero-argument callable to time."""
    h, w, c = geometry
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, c, h, w)).astype(np.float32)
    if op == "residual_add":
        y = rng.standard_normal((1, c, h, w)).astype(np.float32)
        return lambda: x + y
    if op in ("float_conv", "binary_conv"):
        spec = ConvSpec(c, c, (3, 3), stride=1, padding=1)
    else:
        spec = ConvSpec(c, c, (3, 3), stride=1, padding=1, groups=c)
    wts = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    if op in ("float_conv", "float_dw"):
        return lambda: conv_float(x, wts, spec)
    beta = np.abs(wts).mean(axis=(1, 2, 3)).astype(x.dtype)
    if op in ("binary_conv", "binary_dw"):
        bank = BinaryConvWeights(pack(wts, 0.0))
        return lambda: conv_multi_dw(x, np.zeros((1, c)), bank, beta[None], spec)
    if op == "dual_binary_dw":
        w2 = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        bank = BinaryConvWeights(pack(np.concatenate([wts, w2]), 0.0))
        thr, mags = np.stack([np.full(c, -0.25), np.full(c, 0.25)]), np.stack([beta, beta])
        return lambda: conv_multi_dw(x, thr, bank, mags, spec)
    raise ValueError(f"unknown op {op!r}; choose from {OPS}")


def bench_interleaved(op: str, seeds, geometry=(56, 56, 128), reps: int = 30,
                      warmup: int = 5) -> list[BenchResult]:
    """Median/IQR latency of one op per seed, the seeds timed in alternation.

    Every warm-up and timed repetition runs each seed's workload once, in
    the order given; one result per seed comes back in that order.
    Strictly single-threaded.
    """
    if reps < 1 or warmup < 0:
        raise ValueError("reps must be >= 1 and warmup >= 0")
    if not seeds:
        raise ValueError("at least one seed is required")
    fns = [_make_workload(op, geometry, seed) for seed in seeds]
    sink = 0.0
    times = np.empty((reps, len(fns)), dtype=np.float64)
    faults = np.empty((reps, len(fns)), dtype=np.int64)
    for i in range(warmup + reps):
        for j, fn in enumerate(fns):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter_ns()
            out = fn()
            t1 = time.perf_counter_ns()
            f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sink += float(np.asarray(out).ravel()[0])  # consume output
            # release it before the next call, so that every call, whichever
            # seed ran before it, starts from the same heap
            del out
            if i >= warmup:
                times[i - warmup, j] = (t1 - t0) / 1e6
                faults[i - warmup, j] = f1 - f0
    if not np.isfinite(sink):  # pragma: no cover
        raise RuntimeError("benchmark workload produced non-finite output")
    q1, med, q3 = np.percentile(times, [25, 50, 75], axis=0)
    med_faults = np.percentile(faults, 50, axis=0, method="lower")  # a count some call made
    return [BenchResult(op, tuple(geometry), float(med[j]), float(q3[j] - q1[j]), reps, warmup, seed,
                        int(med_faults[j]))
            for j, seed in enumerate(seeds)]


def bench_op(op: str, geometry=(56, 56, 128), reps: int = 30, warmup: int = 5,
             seed: int = 0) -> BenchResult:
    """Median/IQR latency of one op; strictly single-threaded."""
    return bench_interleaved(op, (seed,), geometry, reps, warmup)[0]


def bench_suite(geometry=(56, 56, 128), reps: int = 30, warmup: int = 5,
                out_path=None, seed: int = 0) -> list[BenchResult]:
    """Run all six ops at one geometry; optionally write latency.csv."""
    results = [bench_op(op, geometry, reps, warmup, seed) for op in OPS]
    if out_path:
        write_latency_csv(out_path, results)
    return results


def write_latency_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["op", "geometry", "median_ms", "iqr_ms", "reps", "warmup", "faults"])
        for r in results:
            w.writerow(r.csv_row())
