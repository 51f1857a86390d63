"""Cost model, Jacobian/Hessian conditioning laboratory, and loss-landscape grids.

Cost convention: one multiply-accumulate is one operation; binary layers
count binary ops (BOPs), real layers floating ops (FLOPs), and the total
is OP = BOP/64 + FLOP.

The conditioning laboratory works on explicit small matrices (LAPACK
spectra) and on operator access (deflated power iteration over
Hessian-vector products obtained by central differences of gradients).
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import runtime
from .kernels import ConvSpec

_EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str  # e.g. "conv3x3", "dw3x3", "pw1x1", "linear"
    bops: int
    flops: int

    @property
    def ops(self) -> float:
        return self.bops / 64 + self.flops

    @classmethod
    def of(cls, name: str, kind: str, macs: int, binary: bool) -> "LayerCost":
        """A layer's MACs counted as BOPs if it is binary, else as FLOPs."""
        return cls(name, kind, macs if binary else 0, 0 if binary else macs)


@dataclass
class CostReport:
    layers: list[LayerCost] = field(default_factory=list)

    @property
    def bops(self) -> int:
        return sum(l.bops for l in self.layers)

    @property
    def flops(self) -> int:
        return sum(l.flops for l in self.layers)

    @property
    def ops(self) -> float:
        return self.bops / 64 + self.flops

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["layer", "type", "bops", "flops", "ops"])
            for l in self.layers:
                w.writerow([l.name, l.kind, l.bops, l.flops, repr(l.ops)])
            w.writerow(["total", "", self.bops, self.flops, repr(self.ops)])


def conv_cost(spec: ConvSpec, in_hw: tuple[int, int], binary: bool,
              name: str = "conv", branches: int = 1) -> LayerCost:
    """MAC count of one conv layer of N parallel branches at the given input
    resolution (batch 1), of kind "dw3x3", "pw1x1" or "conv3x3" style."""
    kh, kw = spec.kernel
    if spec.is_depthwise:
        kind = f"dw{kh}x{kw}"
    else:
        kind = f"pw{kh}x{kw}" if (kh, kw) == (1, 1) else f"conv{kh}x{kw}"
    return LayerCost.of(name, kind, spec.macs(*in_hw) * branches, binary)


def count_ops(network) -> CostReport:
    """Cost report of a built network at its configured input shape.

    Only multiply-accumulate work of conv/linear layers is counted, the
    same convention the reference operation-count table uses.
    """
    return CostReport(network.layer_costs())


_TABLE1_GEOMETRY = dict(hw=(56, 56), channels=128)


def reference_op_table() -> list[dict]:
    """The four canonical rows: {full-precision, binary} x {regular, depth-wise}
    3x3 conv at 56x56 resolution with 128 input and output channels. Each
    row carries its LayerCost under "cost"."""
    h, w = _TABLE1_GEOMETRY["hw"]
    c = _TABLE1_GEOMETRY["channels"]
    regular = ConvSpec(c, c, (3, 3), stride=1, padding=1)
    dw = ConvSpec(c, c, (3, 3), stride=1, padding=1, groups=c)
    rows = []
    for name, spec, binary in [
        ("fp_regular_3x3", regular, False),
        ("fp_depthwise_3x3", dw, False),
        ("binary_regular_3x3", regular, True),
        ("binary_depthwise_3x3", dw, True),
    ]:
        lc = conv_cost(spec, (h, w), binary, name)
        rows.append({"name": name, "binary": binary, "macs": spec.macs(h, w), "ops": lc.ops,
                     "cost": lc})
    return rows


def round_sig(x: float, sig: int) -> float:
    """Round to the given number of significant figures."""
    if x == 0:
        return 0.0
    from math import floor, log10

    return round(x, -int(floor(log10(abs(x)))) + sig - 1)


# ---------------------------------------------------------------------------
# Jacobians and condition numbers
# ---------------------------------------------------------------------------


def jacobian_of_block(block, x0) -> np.ndarray:
    """Finite-difference (central) Jacobian of a block at x0.

    block maps a tensor to a tensor of the same total dimension; the
    result is a (dim, dim) matrix over the flattened coordinates. Step per
    coordinate is cbrt(eps) * max(1, |x0_i|).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    d = x0.size
    if d > 512:
        raise ValueError(f"explicit Jacobian limited to 512 dims, got {d}")
    y0 = np.asarray(block(x0))
    if y0.size != d:
        raise ValueError(f"block must preserve dimension: {d} -> {y0.size}")
    flat = x0.ravel()
    jac = np.empty((d, d), dtype=np.float64)
    h0 = _EPS ** (1.0 / 3.0)
    for j in range(d):
        h = h0 * max(1.0, abs(flat[j]))
        xp = flat.copy()
        xm = flat.copy()
        xp[j] += h
        xm[j] -= h
        yp = np.asarray(block(xp.reshape(x0.shape))).ravel()
        ym = np.asarray(block(xm.reshape(x0.shape))).ravel()
        jac[:, j] = (yp - ym) / (2 * h)
    return jac


@dataclass
class ConditionReport:
    """Spectra and condition numbers of J and its shift J' = J + alpha*I."""

    alpha: float
    spectrum: np.ndarray          # of J, sorted descending
    spectrum_shifted: np.ndarray  # of J', sorted descending
    kappa_j: float
    kappa_j_prime: float
    kappa_h: float                # ~ kappa_j^2
    kappa_h_prime: float          # ~ kappa_j_prime^2
    approx_kappa_j_prime: float   # (lam_n/alpha + lam_n/lam_1) * kappa_j
    approx_abs_error: float

    def write_spectrum_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["rank", "eigenvalue", "eigenvalue_shifted"])
            for i, (a, b) in enumerate(zip(self.spectrum, self.spectrum_shifted), 1):
                w.writerow([i, repr(float(a)), repr(float(b))])


def _spectrum(m: np.ndarray) -> np.ndarray:
    """Descending spectrum: eigenvalues if symmetric, singular values otherwise."""
    if np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        vals = np.linalg.eigvalsh(m)[::-1]
    else:
        vals = np.linalg.svd(m, compute_uv=False)
    return np.asarray(vals, dtype=np.float64)


def _kappa(spectrum: np.ndarray) -> float:
    top, bot = float(spectrum[0]), float(spectrum[-1])
    if bot <= abs(top) * 1e-14 or bot == 0.0:
        return float("inf")
    return top / bot


def condition_numbers(j: np.ndarray, alpha: float) -> ConditionReport:
    """Condition analysis of J and its identity-shifted version J + alpha*I.

    Also evaluates the large-alpha approximation
    (lam_n/alpha + lam_n/lam_1) * kappa(J) and its absolute error against
    the exact kappa(J + alpha*I). Numerically singular J yields infinite
    kappa rather than an exception.
    """
    j = np.asarray(j, dtype=np.float64)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise ValueError(f"J must be square, got {j.shape}")
    spec = _spectrum(j)
    jp = j + alpha * np.eye(j.shape[0])
    spec_p = _spectrum(jp)
    kj = _kappa(spec)
    kjp = _kappa(spec_p)
    lam1, lamn = float(spec[0]), float(spec[-1])
    if alpha > 0 and lam1 > 0 and np.isfinite(kj):
        approx = (lamn / alpha + lamn / lam1) * kj
        err = abs(approx - kjp)
    else:
        approx, err = float("nan"), float("nan")
    return ConditionReport(
        alpha=float(alpha),
        spectrum=spec,
        spectrum_shifted=spec_p,
        kappa_j=kj,
        kappa_j_prime=kjp,
        kappa_h=kj**2 if np.isfinite(kj) else float("inf"),
        kappa_h_prime=kjp**2 if np.isfinite(kjp) else float("inf"),
        approx_kappa_j_prime=approx,
        approx_abs_error=err,
    )


def random_dw_jacobian(channels: int, block_dim: int, rng, min_eig: float = None) -> np.ndarray:
    """Random SPD matrix with depth-wise structure (block-diagonal per channel).

    Each channel block is B B^T + delta*I built from a banded random
    matrix, mirroring the banded per-channel Jacobian of a depth-wise conv.
    """
    blocks = []
    for _ in range(channels):
        a = rng.standard_normal((block_dim, block_dim))
        band = np.abs(np.subtract.outer(np.arange(block_dim), np.arange(block_dim))) <= 2
        a = a * band
        delta = min_eig if min_eig is not None else 10.0 ** rng.uniform(-3, 0)
        blocks.append(a @ a.T / block_dim + delta * np.eye(block_dim))
    out = np.zeros((channels * block_dim, channels * block_dim))
    for i, b in enumerate(blocks):
        s = slice(i * block_dim, (i + 1) * block_dim)
        out[s, s] = b
    return out


# ---------------------------------------------------------------------------
# Hessian spectrum via deflated power iteration
# ---------------------------------------------------------------------------


@dataclass
class EigenEstimate:
    value: float
    vector: np.ndarray
    residual: float  # ||Hv - value*v|| with v a unit vector
    converged: bool
    hvps: int = 0  # operator applications of the whole solve, shift estimate included


def _dominant_magnitude(hvp, dim: int, rng, iters: int = 30) -> float:
    """Rough estimate of the spectral radius via plain power iteration."""
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        hv = np.asarray(hvp(v))
        lam = float(v @ hv)
        norm = float(np.linalg.norm(hv))
        if norm == 0:
            return 0.0
        v = hv / norm
    return abs(lam)


def hessian_topk_operator(hvp, dim: int, k: int, seed: int = 0, max_iter: int = 1000,
                          rtol: float = 1e-5) -> list[EigenEstimate]:
    """Top-k (most positive) eigenpairs of a symmetric operator.

    Runs deflated power iteration on the shifted operator H + sigma*I so
    the dominant eigenvalue of the iteration is the algebraically largest
    of H even when negative curvature dominates in magnitude; sigma is
    1.1 times the spectral radius estimated by a short unshifted run.
    Stops on the eigenpair residual ||Hv - lam*v|| (which bounds the
    eigenvalue error for symmetric H); non-convergence is flagged on the
    estimate, never raised. Every estimate reports the operator applications the solve made.
    """
    if k < 1 or k > 10:
        raise ValueError("k must be in [1, 10]")
    if k > dim:
        raise ValueError(f"k={k} exceeds the operator dimension {dim}")
    rng = np.random.default_rng(seed)
    calls = 0

    def counted(v):
        nonlocal calls
        calls += 1
        return hvp(v)

    sigma = 1.1 * _dominant_magnitude(counted, dim, rng, iters=min(30, max_iter))
    found: list[EigenEstimate] = []

    def deflate(v):
        for est in found:
            v = v - est.vector * (est.vector @ v)
        return v

    for _ in range(k):
        v = deflate(rng.standard_normal(dim))
        v /= np.linalg.norm(v)
        lam, residual, converged = 0.0, float("inf"), False
        for _ in range(max_iter):
            hv = deflate(np.asarray(counted(v)) + sigma * v)
            lam = float(v @ hv)
            residual = float(np.linalg.norm(hv - lam * v))
            norm = float(np.linalg.norm(hv))
            if residual <= rtol * max(1.0, abs(lam)):
                converged = True
                break
            if norm == 0:
                lam, residual, converged = 0.0, 0.0, True
                break
            v = hv / norm
        found.append(EigenEstimate(lam - sigma, v, residual, converged))
    for est in found:
        est.hvps = calls
    found.sort(key=lambda e: e.value, reverse=True)
    return found


def network_hvp(network, batch):
    """Hessian-vector product operator for a network's loss.

    Central differences of the gradient along v: (g(t+hv) - g(t-hv)) / 2h,
    with h = 1e-5 relative to the parameter scale, evaluated on a fixed
    batch so the operator is deterministic. The loss
    is probed with the stored normalization statistics (batch statistics
    would renormalize away the curvature along the rescaling directions).
    Callers probing quantized networks should freeze the quantization
    decisions first (see hessian_topk); the differentiable surrogate path
    is smooth only with the sign patterns and clip masks pinned.
    """
    from .train import batch_gradient

    theta0 = network.get_flat_params()
    scale = 1.0 + float(np.linalg.norm(theta0)) / np.sqrt(theta0.size)

    def hvp(v):
        vn = float(np.linalg.norm(v))
        if vn == 0:
            return np.zeros_like(v)
        step = 1e-5 * scale / vn
        try:
            network.set_flat_params(theta0 + step * v)
            gp = batch_gradient(network, batch)
            network.set_flat_params(theta0 - step * v)
            gm = batch_gradient(network, batch)
        finally:
            network.set_flat_params(theta0)
        return (gp - gm) / (2 * step)

    return hvp, theta0.size


def hessian_topk(network, batch, k: int, seed: int = 0, max_iter: int = 200) -> list[EigenEstimate]:
    """Top-k eigenvalues of the training-loss Hessian of a built network.

    The loss is evaluated with the stored normalization statistics (the
    adapted training state; batch statistics would renormalize away the
    curvature along rescaling directions).
    The quantization decisions (activation/weight sign patterns and STE
    clip masks) are captured at the current parameters and replayed while
    probing, so the differentiated path is the smooth surrogate the
    training gradients follow, with the binary convs acting as frozen
    linear maps. Each Hessian-vector product costs two gradient
    evaluations on the batch; estimates that miss the relative residual
    tolerance 1e-4 within the budget are flagged, not rejected. Every
    forward runs in eval mode, so the BN running statistics stay as they are.
    """
    from .train import batch_gradient

    try:
        network.set_quant_mode("capture")
        batch_gradient(network, batch)  # record decisions here
        network.set_quant_mode("use")
        hvp, dim = network_hvp(network, batch)
        return hessian_topk_operator(hvp, dim, k, seed=seed, max_iter=max_iter, rtol=1e-4)
    finally:
        network.set_quant_mode(None)


def write_spectrum_csv(path, values) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "eigenvalue"])
        for i, v in enumerate(values, 1):
            w.writerow([i, repr(float(v))])


# ---------------------------------------------------------------------------
# Loss landscape
# ---------------------------------------------------------------------------


def _filter_normalized_direction(network, rng) -> np.ndarray:
    """Random direction, rescaled so each filter matches its weight's norm.

    Only convolution/linear weight tensors are perturbed; normalization,
    quantizer, and activation parameters stay fixed.
    """
    parts = []
    for _, arr, _, is_filter in network.parameters():
        if is_filter:
            d = rng.standard_normal(arr.shape)
            flat_d = d.reshape(arr.shape[0], -1)
            flat_w = arr.reshape(arr.shape[0], -1)
            wn = np.linalg.norm(flat_w, axis=1)
            dn = np.linalg.norm(flat_d, axis=1)
            dn = np.where(dn == 0, 1.0, dn)
            d = (flat_d * (wn / dn)[:, None]).reshape(arr.shape)
        else:
            d = np.zeros_like(arr)
        parts.append(d.ravel())
    return np.concatenate(parts)


def landscape_grid(network, batch, direction_seed: int, grid: tuple[int, float],
                   mode: str = "2d-surface"):
    """Loss over a filter-normalized parameter grid around the current point.

    grid = (n, span) with n odd so the center cell is the unperturbed
    loss. mode '2d-line' walks one direction (y fixed at 0), '2d-surface'
    spans two orthogonal draws. Returns (xs, ys, losses).
    """
    from .train import batch_loss

    n, span = grid
    if n < 1 or n % 2 == 0:
        raise ValueError("grid size must be odd so the center is the current point")
    if mode not in ("2d-line", "2d-surface"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(direction_seed)
    d1 = _filter_normalized_direction(network, rng)
    d2 = _filter_normalized_direction(network, rng) if mode == "2d-surface" else None
    theta0 = network.get_flat_params()
    xs = np.linspace(-span, span, n)
    ys = xs if mode == "2d-surface" else np.array([0.0])
    losses = np.empty((ys.size, xs.size), dtype=np.float64)

    cells = [(i, j) for i in range(ys.size) for j in range(xs.size)]

    def eval_cells(net, chunk):
        out = []
        for i, j in chunk:
            delta = xs[j] * d1
            if d2 is not None:
                delta = delta + ys[i] * d2
            net.set_flat_params(theta0 + delta)
            out.append((i, j, batch_loss(net, batch)))
        return out

    workers = min(runtime.max_threads(), len(cells))
    if workers > 1 and len(cells) > 8:
        # each worker perturbs its own copy; results land in fixed (i, j) slots
        import copy as _copy

        nets = [_copy.deepcopy(network) for _ in range(workers)]
        chunks = [cells[w::workers] for w in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for res in pool.map(eval_cells, nets, chunks):
                for i, j, loss in res:
                    losses[i, j] = loss
    else:
        for i, j, loss in eval_cells(network, cells):
            losses[i, j] = loss
        network.set_flat_params(theta0)
    return xs, ys, losses


def write_landscape_csv(path, xs, ys, losses) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "loss"])
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                w.writerow([repr(float(x)), repr(float(y)), repr(float(losses[i, j]))])
