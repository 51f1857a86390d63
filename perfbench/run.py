"""bitconv benchmark: one workload per process, closed loop, one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload {train,hessian,infer_packed} \\
        --seed N --seconds S --trace {0,1}

The workload is set up (inputs built, code paths warmed), then runs
rounds of work for ``--seconds``: no round is started that would end past
that time, but a run always makes the workload's minimum number of rounds
(one; two for ``hessian``, one probe of each net), so it can take longer
than ``--seconds`` when those rounds do. Correctness gates check the
rounds' results and, outside the timed region, a fixed sample of outputs;
a failed gate is counted in ``failed`` and makes the exit code 1.

``--trace 0`` reports the end-to-end metrics, measured with the tracer off:

* ``op_ms_p90``: 90th percentile latency of the workload's operation (a
  training step, an HVP, a batch-1 packed forward). Where configs or nets
  differ in cost it is taken per config and averaged, since a pooled
  quantile would sit between their modes.
* ``setup_s``: time to set up (build, pretrain, first results), the
  median of several set-ups spread over the run, between rounds.
* ``peak_rss_mb``: the process's peak resident memory.

Medians and throughputs (samples/s, HVPs/s, images/s) are printed on the
line before the result but are not bounded metrics: on a shared host the
operation time switches between a fast and a slow level for seconds to
minutes at a time, which moves a median or a mean by up to a quarter
between runs, while the 90th percentile stays near the slow level.

``--trace 1`` runs each round untraced, then traced, and reports per-layer
metrics averaged per traced round, the wall time the spans leave
unattributed, and the tracing overhead (traced minus untraced round).
Spans are written once, at the end, to ``.bench_build/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the environment and each workload's own named metrics.

Seed 1729 is held out for checking claims: do not use it while developing
or tuning a change.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_build"
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p90": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "hessian", "infer_packed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> dict:
    """Pin BLAS/OpenMP to one thread before numpy loads; return what was set."""
    before = {k: os.environ.get(k) for k in PINNED}
    for k in PINNED:
        os.environ[k] = "1"
    return before


def environment(before: dict) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "BDNET_THREADS": os.environ.get("BDNET_THREADS"),
        **{k: {"was": before[k], "now": os.environ[k]} for k in PINNED},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB


def run(args) -> int:
    before = pin_threads()
    if not (SRC / "bitconv" / "__init__.py").is_file():
        print(f"perfbench: no bitconv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    from probes import TARGETS, cost_model_check, layer_metrics, unit_of
    from spans import Tracer, write_spans
    from workloads import WORKLOADS, Gates

    wl = WORKLOADS[args.workload]
    clock = time.perf_counter_ns
    setup_ns = []

    def timed_setup():
        t0 = clock()
        state = wl.setup(args.seed)
        setup_ns.append(clock() - t0)
        return state

    state = timed_setup()
    gates = Gates()
    rec = wl.new_record()
    tracer = Tracer(TARGETS)
    untraced_ns, traced_ns = [], []
    start = clock()
    deadline = start + int(args.seconds * 1e9)
    # untraced: the other set-ups go between rounds, one per 1/setup_reps of
    # the run, so set-up time is sampled at the host speeds the rounds see
    every = max(1, (deadline - start) // wl.setup_reps)
    for i in itertools.count():
        t0 = clock()
        wl.round(state, rec, gates, i)
        untraced_ns.append(clock() - t0)
        if args.trace:
            with tracer:
                t0 = clock()
                wl.round(state, rec, gates, i, tracer)
                traced_ns.append(clock() - t0)
        else:
            while len(setup_ns) < min(wl.setup_reps, 1 + (clock() - start) // every):
                timed_setup()
        # past min_rounds, no round is started that would, with the set-ups
        # still due, end past the deadline; it is taken to last as long as
        # the last round on the same input, min_rounds back
        round_ns = [u + t for u, t in zip(untraced_ns, traced_ns)] if args.trace else untraced_ns
        due_ns = 0 if args.trace else (wl.setup_reps - len(setup_ns)) * max(setup_ns)
        if i + 1 >= wl.min_rounds and clock() + round_ns[i + 1 - wl.min_rounds] + due_ns > deadline:
            break
    while not args.trace and len(setup_ns) < wl.setup_reps:
        timed_setup()
    wl.final_gates(state, gates)

    if not args.trace:
        metrics, detail = wl.end_to_end(rec)
        metrics["setup_s"] = float(np.median(setup_ns)) / 1e9
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END_UNITS
    else:
        ran, predicted = cost_model_check(tracer.spans)
        gates.check(ran == predicted, f"kernel MACs {ran} != cost model {predicted}")
        metrics = layer_metrics(tracer.spans, traced_ns, untraced_ns)
        metrics.update(wl.solver_metrics(rec))
        units = {m: unit_of(m) for m in metrics}
        detail = {"kernel_macs_computed": (ran, "count"), "kernel_macs_cost_model": (predicted, "count"),
                  "traced_rounds": (len(traced_ns), "count")}
        SPANS_DIR.mkdir(exist_ok=True)
        write_spans(SPANS_DIR / f"spans-{args.workload}.tsv", tracer.spans)

    attempted = rec["ops"] + gates.checked
    failed = len(gates.failures)
    detail["error_frac"] = (failed / attempted, "1")
    for f in gates.failures[:10]:
        print(f"perfbench: gate failed: {f}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": environment(before),
                      "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
