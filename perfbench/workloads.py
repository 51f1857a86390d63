"""The three benchmark workloads and their correctness gates.

Every workload is a closed loop: one caller issues the next operation only
after the previous one returns, in one process with one thread. A workload
is set up from the seed alone, then runs *rounds* of work; the library
receives only the inputs generated here.

* ``train``: the stability study's training unit. The four ablation
  configs train on the 480-sample ``blobs`` task through ``train.train``
  (Adam, batch 32, float64, fixed epochs). Operation: one optimizer step.
* ``hessian``: the stability study's curvature probe,
  ``analysis.hessian_topk(net, batch96, k=1, seed=7, max_iter=100)`` on a
  ``baseline`` and a ``prebn_dual`` net trained briefly in set-up.
  Operation: one Hessian-vector product (HVP); a round is one probe, of
  the two nets in turn.
* ``infer_packed``: bit-packed inference of the default desk-scale network
  (``ModelConfig()``) in float64 through ``Network.forward(x, packed=True)``.
  Operation: one batch-1 forward; a round also runs one batch-16 forward.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from bitconv import analysis as A
from bitconv import model as M
from bitconv import train as TR

from probes import HVP_ONLY
from spans import END, START, Tracer

clock = time.perf_counter


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def _sub_seeds(seed: int, n: int) -> list[int]:
    """Independent library seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class Workload:
    """Interface of a workload.

    ``setup(seed)`` builds the inputs and warms the code paths the rounds
    use; ``round(..., i)`` runs round ``i``, one unit of timed work (the
    same for every ``i`` unless the workload cycles through inputs);
    ``final_gates`` runs once, outside the timed region. A workload that
    cycles repeats its inputs every ``min_rounds`` rounds, and a run makes
    at least that many, so that every input is covered.
    """

    name = ""
    setup_reps = 1
    min_rounds = 1

    def final_gates(self, state, gates) -> None:
        pass

    def solver_metrics(self, rec) -> dict:
        """Per-layer metrics of the eigen-solver, read from the probes' results."""
        return {"analysis.hvps_per_probe": 0.0, "analysis.probe_residual": 0.0}


@dataclass
class Gates:
    """Correctness checks made during a run: how many, and which failed."""

    checked: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.checked += 1
        if not ok:
            self.failures.append(what)
        return ok


def mean_of_groups(groups: dict, q: float) -> float:
    """Mean over groups (configs, nets) of each group's q-quantile.

    Operations of different configs differ in cost, so a pooled median
    would sit in the gap between their modes; a per-group quantile does not.
    """
    return float(np.mean([_quantile(v, q) for v in groups.values()]))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_N, TRAIN_CLASSES, TRAIN_NOISE = 480, 4, 1.4
TRAIN_EPOCHS, TRAIN_LR, TRAIN_BATCH = 5, 5e-3, 32
CHANCE = 1.0 / TRAIN_CLASSES
# prebn_dual reaches about 0.93 val accuracy after 5 epochs; twice chance
# is a floor no broken trainer clears by luck on 120 validation samples
MIN_PREBN_DUAL_ACC = 2 * CHANCE


def _ablation_net(name: str, seed: int):
    return M.build(TR.ablation_config(name, classes=TRAIN_CLASSES), seed=seed, dtype=np.float64)


def train_gate(gates: Gates, name: str, report) -> None:
    """prebn_dual ends well above chance.

    A non-finite step or eval loss needs no check here: ``train.train``
    raises ``DivergenceError`` on it, which ``round`` counts as a failure.
    """
    if name == "prebn_dual":
        acc = report.final("val")
        gates.check(acc >= MIN_PREBN_DUAL_ACC,
                    f"prebn_dual val accuracy {acc:.3f} < {MIN_PREBN_DUAL_ACC:.2f}")


class TrainWorkload(Workload):
    name = "train"
    setup_reps = 20

    def setup(self, seed: int):
        data_seed, net_seed, order_seed = _sub_seeds(seed, 3)
        data = TR.gen_synthetic("blobs", TRAIN_N, TRAIN_CLASSES, seed=data_seed, noise=TRAIN_NOISE)
        nets = {name: _ablation_net(name, net_seed) for name in TR.ABLATION_NAMES}
        cfg = TR.TrainConfig(epochs=TRAIN_EPOCHS, lr=TRAIN_LR, batch_size=TRAIN_BATCH, seed=order_seed)
        warm = (data[0].x[:TRAIN_BATCH], data[0].y[:TRAIN_BATCH])
        for name in TR.ABLATION_NAMES:  # throwaway nets: a training forward moves BN statistics
            TR.backward(_ablation_net(name, net_seed), warm)
        return {"data": data, "nets": nets, "cfg": cfg, "net_seed": net_seed}

    def new_record(self):
        return {"step_s": {n: [] for n in TR.ABLATION_NAMES},
                "epoch_s": {n: [] for n in TR.ABLATION_NAMES},
                "samples": 0, "ops": 0}

    def round(self, state, rec, gates: Gates, i: int, tracer=None) -> None:
        """Train every config from its freshly built state for TRAIN_EPOCHS."""
        data, cfg = state["data"], state["cfg"]
        batches = [min(TRAIN_BATCH, len(data[0]) - s) for s in range(0, len(data[0]), TRAIN_BATCH)]
        for name in TR.ABLATION_NAMES:
            net = state["nets"][name]
            steps, epochs = rec["step_s"][name], rec["epoch_s"][name]
            mark = {"step": 0.0, "epoch": 0.0}
            post_step = net.post_step

            def timed_post_step(post_step=post_step, steps=steps, mark=mark):
                post_step()
                t = clock()
                steps.append(t - mark["step"])
                mark["step"] = t

            def hook(network, epoch, epochs=epochs, mark=mark):
                t = clock()
                epochs.append(t - mark["epoch"])
                mark["step"] = mark["epoch"] = t

            net.post_step = timed_post_step  # shadows the class method on this instance
            if tracer is not None:
                tracer.begin_op()
            n_steps = len(steps)
            mark["step"] = mark["epoch"] = clock()
            try:
                report = TR.train(net, data, cfg, epoch_hook=hook)
            except TR.DivergenceError as e:
                gates.check(False, f"{name}: {e}")
            else:
                train_gate(gates, name, report)
            finally:
                del net.post_step  # breaks the net -> hook -> net cycle, so the net is freed now
            rec["ops"] += len(steps) - n_steps
            rec["samples"] += sum(batches[i % len(batches)] for i in range(len(steps) - n_steps))
            state["nets"][name] = _ablation_net(name, state["net_seed"])

    def end_to_end(self, rec) -> tuple[dict, dict]:
        step_s = rec["step_s"]
        metrics = {"op_ms_p90": 1e3 * mean_of_groups(step_s, 0.9)}
        detail = {
            "train_samples_per_s": (rec["samples"] / sum(sum(v) for v in step_s.values()), "1/s"),
            "train_step_ms_p50": (1e3 * mean_of_groups(step_s, 0.5), "ms"),
            "train_step_ms_p90": (metrics["op_ms_p90"], "ms"),
            "train_epoch_s_p50": (mean_of_groups(rec["epoch_s"], 0.5), "s"),
            "train_steps": (rec["ops"], "count"),
        }
        return metrics, detail


# ---------------------------------------------------------------------------
# hessian
# ---------------------------------------------------------------------------

PROBE_NETS = ("baseline", "prebn_dual")
PROBE_BATCH, PROBE_SEED, PROBE_MAX_ITER = 96, 7, 100
PRETRAIN_EPOCHS = 2
SPECTRUM_DIM, SPECTRUM_K, SPECTRUM_RTOL = 36, 5, 1e-3


def known_spectrum(seed: int):
    """Symmetric operator with eigenvalues 12 * 0.75^i + 0.05 in a random basis."""
    eigs = np.sort(12.0 * 0.75 ** np.arange(SPECTRUM_DIM) + 0.05)[::-1]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((SPECTRUM_DIM, SPECTRUM_DIM)))
    return q @ np.diag(eigs) @ q.T, eigs[:SPECTRUM_K]


def spectrum_gate(gates: Gates, estimates, want) -> None:
    got = np.array([e.value for e in estimates])
    gates.check(got.shape == want.shape and bool(np.allclose(got, want, rtol=SPECTRUM_RTOL)),
                f"known spectrum not recovered: {got} vs {want}")


def probe_gate(gates: Gates, name: str, est) -> None:
    gates.check(bool(np.isfinite(est.value) and np.isfinite(est.residual)),
                f"{name}: probe returned value {est.value}, residual {est.residual}")


class HessianWorkload(Workload):
    name = "hessian"
    setup_reps = 5
    min_rounds = len(PROBE_NETS)

    def setup(self, seed: int):
        data_seed, net_seed, order_seed, spectrum_seed = _sub_seeds(seed, 4)
        train_ds, val_ds = TR.gen_synthetic("blobs", TRAIN_N, TRAIN_CLASSES, seed=data_seed,
                                            noise=TRAIN_NOISE)
        cfg = TR.TrainConfig(epochs=PRETRAIN_EPOCHS, lr=TRAIN_LR, batch_size=TRAIN_BATCH,
                             seed=order_seed)
        nets = {}
        for name in PROBE_NETS:
            nets[name] = _ablation_net(name, net_seed)
            TR.train(nets[name], (train_ds, val_ds), cfg)
        probe = (train_ds.x[:PROBE_BATCH], train_ds.y[:PROBE_BATCH])
        return {"nets": nets, "probe": probe, "spectrum_seed": spectrum_seed}

    def new_record(self):
        return {"hvp_s": {n: [] for n in PROBE_NETS}, "probe_s": {n: [] for n in PROBE_NETS},
                "estimates": {n: [] for n in PROBE_NETS}, "ops": 0}

    def round(self, state, rec, gates: Gates, i: int, tracer=None) -> None:
        """One probe of net ``i`` mod 2; a probe leaves its net unchanged.

        A round of one probe, not of both, keeps rounds short enough to
        fill a run of ``--seconds`` without running past it.
        """
        name = PROBE_NETS[i % len(PROBE_NETS)]
        if tracer is not None:
            tracer.begin_op()
        with Tracer(HVP_ONLY) as hvps:
            t0 = clock()
            est = A.hessian_topk(state["nets"][name], state["probe"], 1,
                                 seed=PROBE_SEED, max_iter=PROBE_MAX_ITER)[0]
            rec["probe_s"][name].append(clock() - t0)
        rec["hvp_s"][name].extend((s[END] - s[START]) / 1e9 for s in hvps.spans)
        rec["estimates"][name].append((est, len(hvps.spans)))
        rec["ops"] += len(hvps.spans)
        probe_gate(gates, name, est)

    def final_gates(self, state, gates: Gates) -> None:
        op, want = known_spectrum(state["spectrum_seed"])
        spectrum_gate(gates, A.hessian_topk_operator(lambda v: op @ v, SPECTRUM_DIM, SPECTRUM_K,
                                                     seed=1), want)

    def solver_metrics(self, rec) -> dict:
        probes = [e for v in rec["estimates"].values() for e in v]
        return {"analysis.hvps_per_probe": float(np.mean([n for _, n in probes])),
                "analysis.probe_residual": float(np.median([e.residual for e, _ in probes]))}

    def end_to_end(self, rec) -> tuple[dict, dict]:
        metrics = {"op_ms_p90": 1e3 * mean_of_groups(rec["hvp_s"], 0.9)}
        ests = [e for v in rec["estimates"].values() for e in v]
        detail = {
            "hessian_probe_s": (mean_of_groups(rec["probe_s"], 0.5), "s"),
            "hvp_ms_p50": (1e3 * mean_of_groups(rec["hvp_s"], 0.5), "ms"),
            "hvp_ms_p90": (metrics["op_ms_p90"], "ms"),
            "hessian_converged_frac": (float(np.mean([e.converged for e, _ in ests])), "1"),
            "hvps": (rec["ops"], "count"),
            "probes": (len(ests), "count"),
        }
        for name, v in rec["estimates"].items():
            detail[f"hvps_per_probe.{name}"] = (float(np.mean([n for _, n in v])), "count")
            detail[f"lambda_max.{name}"] = (v[-1][0].value, "1")
        return metrics, detail


# ---------------------------------------------------------------------------
# infer_packed
# ---------------------------------------------------------------------------

B1_PER_ROUND, B16 = 16, 16


def infer_gate(gates: Gates, what: str, packed, reference) -> None:
    gates.check(bool(np.array_equal(packed, reference)), f"{what}: packed logits differ from float")


class InferWorkload(Workload):
    name = "infer_packed"
    setup_reps = 10

    def setup(self, seed: int):
        net_seed, input_seed = _sub_seeds(seed, 2)
        net = M.build(M.ModelConfig(), seed=net_seed, dtype=np.float64)
        rng = np.random.default_rng(input_seed)
        shape = net.config.input_shape
        state = {"net": net,
                 "b1": [rng.standard_normal((1, *shape)) for _ in range(B1_PER_ROUND)],
                 "b16": rng.standard_normal((B16, *shape))}
        net.forward(state["b1"][0], packed=True)  # first results, part of set-up
        net.forward(state["b16"], packed=True)
        return state

    def new_record(self):
        return {"b1_s": [], "b16_s": [], "ops": 0}

    def round(self, state, rec, gates: Gates, i: int, tracer=None) -> None:
        net = state["net"]
        for x in [*state["b1"], state["b16"]]:
            if tracer is not None:
                tracer.begin_op()
            t0 = clock()
            net.forward(x, packed=True)
            (rec["b1_s"] if x.shape[0] == 1 else rec["b16_s"]).append(clock() - t0)
            rec["ops"] += 1

    def final_gates(self, state, gates: Gates) -> None:
        """Packed equals the float path bit for bit on a fixed sample."""
        net = state["net"]
        for what, x in (("b1[0]", state["b1"][0]), ("b1[-1]", state["b1"][-1]), ("b16", state["b16"])):
            infer_gate(gates, what, net.forward(x, packed=True), net.forward(x))

    def end_to_end(self, rec) -> tuple[dict, dict]:
        metrics = {"op_ms_p90": 1e3 * _quantile(rec["b1_s"], 0.9)}
        detail = {
            "infer_b1_ms_p50": (1e3 * _quantile(rec["b1_s"], 0.5), "ms"),
            "infer_b1_ms_p90": (metrics["op_ms_p90"], "ms"),
            "infer_b16_images_per_s": (B16 / _quantile(rec["b16_s"], 0.5), "1/s"),
            "infer_b1_forwards": (len(rec["b1_s"]), "count"),
            "infer_b16_forwards": (len(rec["b16_s"]), "count"),
        }
        return metrics, detail


WORKLOADS = {w.name: w for w in (TrainWorkload(), HessianWorkload(), InferWorkload())}
