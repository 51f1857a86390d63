"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench``."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bitconv
import bitconv.verify  # noqa: F401  (one more import site for the tracer to cover)
from bitconv import model as M
from bitconv import train as TR
from bitconv.analysis import EigenEstimate

import probes
import spans as S
import workloads as W


def _bindings():
    """Every attribute of every loaded bitconv module and targeted class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "bitconv" or name.startswith("bitconv.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for t in probes.TARGETS:
        if "." in t.attr:
            cls = getattr(sys.modules[t.module], t.attr.split(".")[0])
            out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_rebinds_every_import_site_and_restores_them():
    before = _bindings()
    original = bitconv.kernels.conv_float
    with S.Tracer(probes.TARGETS):
        for site in (bitconv.kernels, M, bitconv.verify, bitconv):
            assert site.conv_float is not original
            assert site.conv_float.__wrapped__ is original
        assert bitconv.kernels.pack is bitconv.tensor.pack is not before[("bitconv.tensor", "pack")]
        assert M.BatchNorm.forward is not before[("BatchNorm", "forward")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_bindings_when_the_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with S.Tracer(probes.TARGETS):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_bindings_when_a_target_is_missing():
    before = _bindings()
    bad = probes.TARGETS + (S.Target("bitconv.kernels", "no_such_kernel", "x"),)
    with pytest.raises(AttributeError):
        with S.Tracer(bad):
            pass
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def _tiny_net():
    return M.build(M.ModelConfig(stages=((8, 1), (16, 2)), input_shape=(3, 8, 8)), seed=0,
                   dtype=np.float64)


def test_spans_record_parents_ops_work_and_operators():
    net = _tiny_net()
    x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
    y = np.array([0, 1])
    batch_size = lambda self, x, *args, **kwargs: x.shape[0]
    targets = [S.Target("bitconv.model", "Network.forward", probes.FORWARD, batch_size),
               S.Target("bitconv.kernels", "conv_float", "kernels.conv_float"),
               S.Target("bitconv.analysis", "network_hvp", "analysis.hvp", returns_operator=True)]
    tracer = S.Tracer(targets)
    with tracer:
        tracer.begin_op()
        net.forward(x)
        tracer.begin_op()
        hvp, dim = bitconv.analysis.network_hvp(net, (x, y))
        assert dim == net.get_flat_params().size
        hvp(np.zeros(dim))
    assert not hasattr(bitconv.analysis.network_hvp, "__wrapped__")
    assert not hasattr(M.Network.forward, "__wrapped__")
    names = [s[S.NAME] for s in tracer.spans]
    n_convs = names.index("analysis.hvp") - 1
    assert n_convs > 0
    assert names == [probes.FORWARD, *["kernels.conv_float"] * n_convs, "analysis.hvp"]
    assert [s[S.PARENT] for s in tracer.spans] == [-1, *[0] * n_convs, -1]
    assert [s[S.OP] for s in tracer.spans] == [1, *[1] * n_convs, 2]
    assert tracer.spans[0][S.WORK] == 2
    assert all(s[S.START] <= s[S.END] for s in tracer.spans)


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0, 100, -1, 1, 0],
             ["b", 10, 30, 0, 1, 5],
             ["c", 40, 60, 0, 1, 0],
             ["d", 45, 50, 2, 1, 3],
             ["a", 200, 210, -1, 2, 0]]
    assert S.self_times_ns(spans) == [60, 20, 15, 5, 10]
    agg = S.summarize(spans)
    assert agg["a"] == {"calls": 2, "total_ns": 110, "self_ns": 70, "work": 0}
    assert S.top_level_ns(spans) == 110
    assert S.nearest_ancestor(spans, 3, "a") == 0
    assert S.nearest_ancestor(spans, 3, "b") == -1


def test_layer_metrics_average_per_round_and_report_overhead():
    spans = [[probes.FORWARD, 0, 100, -1, 1, 8],
             ["kernels.conv_float", 10, 60, 0, 1, 8],
             [probes.FORWARD, 200, 300, -1, 2, 8],
             ["kernels.conv_float", 210, 260, 2, 2, 8]]
    m = probes.layer_metrics(spans, traced_ns=[400, 600], untraced_ns=[300, 350])
    assert m["kernels.conv_float.calls"] == 1
    assert m["kernels.conv_float.ms"] == pytest.approx(50 / 1e6)
    assert m["model.network.self_ms"] == pytest.approx(50 / 1e6)
    assert m["kernels.float_macs"] == 8
    assert m["trace.round_ms"] == pytest.approx(500 / 1e6)
    assert m["trace.unattributed_ms"] == pytest.approx(400 / 1e6)
    assert m["trace.overhead_ms"] == pytest.approx(175 / 1e6)
    assert probes.cost_model_check(spans) == (16, 16)


def test_cost_model_check_catches_missing_kernel_work():
    spans = [[probes.FORWARD, 0, 100, -1, 1, 8], ["kernels.conv_binary", 10, 60, 0, 1, 4]]
    ran, predicted = probes.cost_model_check(spans)
    assert ran != predicted


def test_traced_forward_matches_the_cost_model():
    net = _tiny_net()
    x = np.random.default_rng(0).standard_normal((2, 3, 8, 8))
    tracer = S.Tracer(probes.TARGETS)
    with tracer:
        net.forward(x, packed=True)
        net.forward(x)
    ran, predicted = probes.cost_model_check(tracer.spans)
    assert ran == predicted > 0
    costs = net.layer_costs()
    assert predicted == 2 * 2 * sum(c.bops + c.flops for c in costs if c.kind != "linear")


@pytest.mark.parametrize("name", ["train", "infer_packed"])
def test_seeded_inputs_are_deterministic(name):
    wl = W.WORKLOADS[name]
    a, b, c = wl.setup(5), wl.setup(5), wl.setup(6)
    if name == "train":
        arrays = lambda s: [s["data"][0].x, s["data"][1].x, s["nets"]["dual"].get_flat_params()]
    else:
        arrays = lambda s: [*s["b1"], s["b16"], s["net"].get_flat_params()]
    assert all(np.array_equal(u, v) for u, v in zip(arrays(a), arrays(b)))
    assert not any(np.array_equal(u, v) for u, v in zip(arrays(a), arrays(c)))


def test_hessian_inputs_are_deterministic(monkeypatch):
    monkeypatch.setattr(W, "PRETRAIN_EPOCHS", 1)
    wl = W.WORKLOADS["hessian"]
    a, b, c = wl.setup(5), wl.setup(5), wl.setup(6)
    flat = lambda s: [s["probe"][0], *(n.get_flat_params() for n in s["nets"].values())]
    assert all(np.array_equal(u, v) for u, v in zip(flat(a), flat(b)))
    assert not any(np.array_equal(u, v) for u, v in zip(flat(a), flat(c)))
    assert np.array_equal(W.known_spectrum(5)[0], W.known_spectrum(5)[0])


def _small_infer_state():
    net = _tiny_net()
    rng = np.random.default_rng(0)
    return {"net": net, "b1": [rng.standard_normal((1, 3, 8, 8)) for _ in range(2)],
            "b16": rng.standard_normal((16, 3, 8, 8))}


def test_infer_gate_passes_and_fires_on_one_flipped_logit(monkeypatch):
    state = _small_infer_state()
    gates = W.Gates()
    W.InferWorkload().final_gates(state, gates)
    assert gates.checked == 3 and not gates.failures

    net = state["net"]
    forward = net.forward

    def faulty(x, training=False, packed=False):
        y = forward(x, training, packed)
        if packed:
            y[0, 0] = -y[0, 0]
        return y

    monkeypatch.setattr(net, "forward", faulty)
    gates = W.Gates()
    W.InferWorkload().final_gates(state, gates)
    assert len(gates.failures) == 3


def _report(losses, accs):
    report = TR.TrainReport()
    for epoch, (loss, acc) in enumerate(zip(losses, accs)):
        report.add(epoch, "train", loss, acc)
        report.add(epoch, "val", loss, acc)
    return report


def test_train_gate_fires_on_chance_accuracy():
    gates = W.Gates()
    W.train_gate(gates, "prebn_dual", _report([1.0, 0.5], [0.5, 0.9]))
    assert gates.checked == 1 and not gates.failures
    W.train_gate(gates, "prebn_dual", _report([1.0, 0.9], [0.3, W.CHANCE]))
    assert len(gates.failures) == 1


def test_train_round_counts_a_diverged_run_as_failed(monkeypatch):
    monkeypatch.setattr(W, "TRAIN_EPOCHS", 1)
    wl = W.WORKLOADS["train"]
    state = wl.setup(0)
    state["data"][0].x[3, 0, 0, 0] = np.nan
    gates, rec = W.Gates(), wl.new_record()
    wl.round(state, rec, gates, 0)
    assert len(gates.failures) == len(TR.ABLATION_NAMES)


def test_hessian_gates_fire_on_wrong_spectrum_and_non_finite_probe():
    op, want = W.known_spectrum(3)
    gates = W.Gates()
    est = W.A.hessian_topk_operator(lambda v: op @ v, W.SPECTRUM_DIM, W.SPECTRUM_K, seed=1)
    W.spectrum_gate(gates, est, want)
    assert not gates.failures
    est[2] = EigenEstimate(est[2].value * 1.01, est[2].vector, est[2].residual, est[2].converged)
    W.spectrum_gate(gates, est, want)
    W.probe_gate(gates, "baseline", EigenEstimate(float("nan"), None, 1.0, False))
    W.probe_gate(gates, "baseline", EigenEstimate(1.0, None, float("inf"), False))
    assert len(gates.failures) == 3


def test_run_exits_nonzero_without_printing_when_sources_are_absent(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
