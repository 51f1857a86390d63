"""Desk-scale quantization-aware trainer.

Supports one-step training (weights and activations binarized throughout)
and the two-step schedule: step one trains binary activations against
real-valued weights, step two binarizes the weights as well, starting from
the step-one state with weight decay dropped to zero.

Cross-entropy loss; SGD-with-momentum or Adam; cosine or linear learning
rate decay. Everything is deterministic under the config seed: batch order
and synthetic data come from seeded generators and gradient reductions run
in fixed order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .layers import BlockTopology
from .model import ModelConfig, Network, build


class DivergenceError(RuntimeError):
    """Training loss became non-finite; names the most suspect BN layer."""

    def __init__(self, epoch, layer, alpha):
        super().__init__(
            f"non-finite loss at epoch {epoch}; BN layer {layer!r} has scaling factor "
            f"{alpha:.3e} (largest in the network)"
        )
        self.layer = layer
        self.alpha = alpha


@dataclass
class TrainConfig:
    optimizer: str = "adam"          # "adam" | "sgd" (momentum 0.9)
    schedule: str = "cosine"         # "cosine" | "linear"
    lr: float = 1e-2
    weight_decay: float = 0.0
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    step: str = "one-step"           # "one-step" | "two-step" (half the epochs in step one)

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.schedule not in ("cosine", "linear"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.step not in ("one-step", "two-step"):
            raise ValueError(f"unknown step mode {self.step!r}")
        if self.step == "two-step" and self.epochs < 2:
            raise ValueError("two-step training needs epochs >= 2, one for each step")


@dataclass
class Dataset:
    """Labeled (N,C,H,W) tensors with deterministic iteration order."""

    x: np.ndarray
    y: np.ndarray
    classes: int
    split: str = "train"

    def __post_init__(self):
        self.x = np.asarray(self.x)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("inputs and labels disagree in length")
        if len(self) and (self.y.min() < 0 or self.y.max() >= self.classes):
            raise ValueError("labels must lie in [0, classes)")

    def __len__(self):
        return self.x.shape[0]


@dataclass
class TrainReport:
    """Per-epoch curves for both splits, CSV round-trippable."""

    rows: list = field(default_factory=list)  # (epoch, split, loss, accuracy)

    def add(self, epoch, split, loss, accuracy):
        self.rows.append((int(epoch), split, float(loss), float(accuracy)))

    def curve(self, split, metric="accuracy"):
        idx = 3 if metric == "accuracy" else 2
        return np.array([r[idx] for r in self.rows if r[1] == split])

    def final(self, split, metric="accuracy"):
        return float(self.curve(split, metric)[-1])

    def late_variance(self, split):
        """Variance of the accuracy over the trailing half of the epochs."""
        c = self.curve(split)
        return float(np.var(c[len(c) - max(1, len(c) // 2):]))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "split", "loss", "accuracy"])
            for epoch, split, loss, acc in self.rows:
                w.writerow([epoch, split, repr(loss), repr(acc)])

    @staticmethod
    def read_csv(path):
        report = TrainReport()
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                report.add(int(row["epoch"]), row["split"], float(row["loss"]), float(row["accuracy"]))
        return report


# ---------------------------------------------------------------------------
# Loss and gradient entry points
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy; returns (loss, dlogits, accuracy)."""
    z = np.asarray(logits, dtype=np.float64)
    n = z.shape[0]
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    nll = -np.log(np.clip(p[np.arange(n), labels], 1e-300, None))
    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1.0
    acc = float((z.argmax(axis=1) == labels).mean())
    return float(nll.mean()), dlogits / n, acc


def batch_loss(network: Network, batch) -> float:
    """Eval-mode loss on an (x, y) batch."""
    x, y = batch
    logits = network.forward(x, training=False)
    loss, _, _ = softmax_cross_entropy(logits, y)
    return loss


def batch_gradient(network: Network, batch) -> np.ndarray:
    """Flat eval-mode loss gradient on a fixed batch (used for HVPs)."""
    x, y = batch
    network.zero_grads()
    logits = network.forward(x, training=False, grad=True)
    _, dlogits, _ = softmax_cross_entropy(logits, y)
    network.backward(dlogits.astype(network.dtype))
    return network.get_flat_grads()


def backward(network: Network, batch):
    """Training-mode forward+backward; returns (loss, acc).

    The gradients land in the grad of every parameter record, including
    the quantizer thresholds and magnitudes.
    """
    x, y = batch
    network.zero_grads()
    logits = network.forward(x, training=True, grad=True)
    loss, dlogits, acc = softmax_cross_entropy(logits, y)
    network.backward(dlogits.astype(network.dtype))
    return loss, acc


# ---------------------------------------------------------------------------
# Optimizers and schedules
# ---------------------------------------------------------------------------


class SGD:
    """SGD with classical momentum: v <- mu*v + g; w <- w - lr*v."""

    def __init__(self, momentum=0.9):
        self.momentum = momentum
        self.v = {}

    def step(self, records, lr, weight_decay=0.0):
        for name, param, grad, decay in records:
            g = grad.astype(np.float64)
            if decay and weight_decay:
                g = g + weight_decay * param
            v = self.v.get(name)
            if v is None:
                v = np.zeros(param.shape, dtype=np.float64)
                self.v[name] = v
            v *= self.momentum
            v += g
            param[...] = (param - lr * v).astype(param.dtype)


class Adam:
    """Adam with bias correction; the L2 term folds into the gradient."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self):
        self.m, self.v = {}, {}
        self.t = 0

    def step(self, records, lr, weight_decay=0.0):
        self.t += 1
        c1 = 1 - self.BETA1**self.t
        c2 = 1 - self.BETA2**self.t
        for name, param, grad, decay in records:
            g = grad.astype(np.float64)
            if decay and weight_decay:
                g = g + weight_decay * param
            m = self.m.get(name)
            if m is None:
                m = np.zeros(param.shape, dtype=np.float64)
                v = np.zeros(param.shape, dtype=np.float64)
                self.m[name], self.v[name] = m, v
            else:
                v = self.v[name]
            m *= self.BETA1
            m += (1 - self.BETA1) * g
            v *= self.BETA2
            v += (1 - self.BETA2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.EPS)
            param[...] = (param - lr * update).astype(param.dtype)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SGD()
    return Adam()


def schedule_lr(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch index."""
    t = epoch / cfg.epochs
    if cfg.schedule == "cosine":
        return cfg.lr * 0.5 * (1 + float(np.cos(np.pi * t)))
    return cfg.lr * (1 - t)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _evaluate(network: Network, ds: Dataset, batch_size: int):
    losses, hits, total = 0.0, 0.0, 0
    for start in range(0, len(ds), batch_size):
        x = ds.x[start : start + batch_size]
        y = ds.y[start : start + batch_size]
        logits = network.forward(x, training=False)
        loss, _, acc = softmax_cross_entropy(logits, y)
        losses += loss * len(y)
        hits += acc * len(y)
        total += len(y)
    return losses / total, hits / total


def _diagnose_divergence(network: Network, epoch: int):
    report = network.bn_alpha_report()
    if report:
        layer, alpha = max(report, key=lambda t: t[1])
    else:
        layer, alpha = "<none>", float("nan")
    raise DivergenceError(epoch, layer, alpha)


def train(network: Network, data, cfg: TrainConfig, epoch_hook=None) -> TrainReport:
    """Train a built network on (train, val) datasets; returns the curves.

    Two-step mode trains binary activations against real weights first,
    then binarizes the weights (magnitudes re-seeded from the latent
    weights) and fine-tunes with weight decay forced to zero. epoch_hook,
    if given, is called as epoch_hook(network, epoch) after each epoch's
    metrics; it must leave the network state untouched.
    """
    train_ds, val_ds = data
    if len(train_ds) == 0:
        raise ValueError("empty training split")
    if len(val_ds) == 0:
        raise ValueError("empty validation split")
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(cfg)
    report = TrainReport()

    if cfg.step == "two-step":
        step1_epochs = round(cfg.epochs / 2)  # 1 <= step1_epochs < epochs, as epochs >= 2
        network.set_weight_binarization(False)
    else:
        step1_epochs = 0

    for epoch in range(cfg.epochs):
        if cfg.step == "two-step" and epoch == step1_epochs:
            network.set_weight_binarization(True)
        in_step2 = cfg.step == "two-step" and epoch >= step1_epochs
        weight_decay = 0.0 if in_step2 else cfg.weight_decay
        lr = schedule_lr(cfg, epoch)

        if lr > 0:
            order = rng.permutation(len(train_ds))
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                batch = (train_ds.x[idx], train_ds.y[idx])
                loss, _ = backward(network, batch)
                if not np.isfinite(loss):
                    _diagnose_divergence(network, epoch)
                opt.step(network.parameters(), lr, weight_decay)
                network.post_step()

        for split, ds in (("train", train_ds), ("val", val_ds)):
            loss, acc = _evaluate(network, ds, cfg.batch_size)
            if not np.isfinite(loss):
                _diagnose_divergence(network, epoch)
            report.add(epoch, split, loss, acc)
        if epoch_hook is not None:
            epoch_hook(network, epoch)
    return report


# ---------------------------------------------------------------------------
# External tiny-dataset CSV ingestion
# ---------------------------------------------------------------------------


def load_csv_dataset(path, image_shape, classes: int, split: str = "train") -> Dataset:
    """Read `label,pix0,pix1,...` rows into a Dataset.

    Pixels fill (C, H, W) row-major with width fastest; every row must
    carry exactly C*H*W pixels.
    """
    c, h, w = image_shape
    want = c * h * w
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for ln, row in enumerate(reader, 1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if row[0].strip() == "label":  # optional header
                    continue
                if len(row) != 1 + want:
                    raise ValueError(f"{path}:{ln}: expected {1 + want} fields, got {len(row)}")
                ys.append(int(row[0]))
                xs.append(np.asarray(row[1:], dtype=np.float64))
                if not np.all(np.isfinite(xs[-1])):
                    raise ValueError(f"{path}:{ln}: pixel values must be finite")
        except csv.Error as e:  # e.g. a field over the csv module's size limit
            raise ValueError(f"{path}:{reader.line_num}: {e}") from e
    if not xs:
        raise ValueError(f"{path}: no data rows")
    x = np.stack(xs).reshape(len(xs), c, h, w)
    return Dataset(x, np.asarray(ys), classes, split)


def save_csv_dataset(path, ds: Dataset) -> None:
    """Inverse of load_csv_dataset."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(len(ds)):
            writer.writerow([int(ds.y[i])] + [repr(float(v)) for v in ds.x[i].ravel()])


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def _smooth_patterns(count: int, channels: int, size: int, rng) -> np.ndarray:
    """Orthonormal low-frequency patterns (coarse noise, upsampled).

    Smoothness matters: spatially flat regions binarize to constant sign
    patches, which is what collapses depth-wise conv output variance (the
    instability the residual topologies are meant to fix). Natural images
    are locally smooth in the same way.
    """
    coarse = max(2, size // 3 + 1)
    reps = size // coarse + 1
    raw = rng.standard_normal((count, channels, coarse, coarse))
    up = np.repeat(np.repeat(raw, reps, axis=2), reps, axis=3)[:, :, :size, :size]
    flat = up.reshape(count, channels * size * size)
    q, _ = np.linalg.qr(flat.T)
    return (q.T[:count] * np.sqrt(flat.shape[1])).reshape(count, channels, size, size)


def gen_synthetic(kind: str, n: int, classes: int, seed: int, *,
                  image_size: int = 8, channels: int = 1, noise: float = 0.5):
    """Reproducible labeled point clouds lifted to small image tensors.

    Each class owns an orthonormal low-frequency texture pattern; a
    sample's 2-D latent point modulates the pattern amplitude and mixes in
    a shared distractor pattern, so both the spatial texture and its
    magnitude carry label information. Returns (train, val) Datasets with
    balanced classes; a quarter of the samples go to val.
    """
    if kind not in ("blobs", "spirals"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    rng = np.random.default_rng(seed)
    pats = _smooth_patterns(classes + 1, channels, image_size, rng)
    class_pats = pats[:classes]
    shared = pats[classes]

    labels = np.arange(n) % classes  # balanced within +/-1
    if kind == "blobs":
        angles = 2 * np.pi * labels / classes
        z0 = np.cos(angles) + 0.25 * rng.standard_normal(n)
        z1 = np.sin(angles) + 0.25 * rng.standard_normal(n)
    else:  # spirals
        t = rng.uniform(0.15, 1.0, size=n)
        theta = 3 * np.pi * t + 2 * np.pi * labels / classes
        z0 = t * np.cos(theta)
        z1 = t * np.sin(theta)

    x = (1.0 + 0.5 * z0)[:, None, None, None] * class_pats[labels]
    x = x + 0.7 * z1[:, None, None, None] * shared[None]
    x = x + noise * rng.standard_normal(x.shape)

    perm = rng.permutation(n)
    x, labels = x[perm], labels[perm]
    n_val = round(n / 4)
    train = Dataset(x[n_val:], labels[n_val:], classes, "train")
    val = Dataset(x[:n_val], labels[:n_val], classes, "val")
    return train, val


# ---------------------------------------------------------------------------
# Ablation presets and the desk-scale stability study
# ---------------------------------------------------------------------------


ABLATION_NAMES = ("baseline", "prebn", "dual", "prebn_dual")


def ablation_config(name: str, *, classes: int = 3) -> ModelConfig:
    """Desk-scale ablation axes: baseline, +pre-BN, +dual, and both, on
    (1, 8, 8) inputs through stages (8, 1), (16, 2), (16, 1).

    The baseline keeps the conventional post-BN shortcut (the backbone the
    naive binarization starts from carries one), so its block Jacobian has
    the a*Jdw + I form; the pre-BN variants move to a*Jdw + (a+1)*I.
    """
    if name not in ABLATION_NAMES:
        raise ValueError(f"unknown ablation {name!r}; choose from {ABLATION_NAMES}")
    topo = BlockTopology.PRE_BN_RESIDUAL if "prebn" in name else BlockTopology.POST_BN_RESIDUAL
    n_convs = 2 if "dual" in name else 1
    return ModelConfig(
        variant="A", n_convs=n_convs, width_multiplier=1.0, stages=((8, 1), (16, 2), (16, 1)),
        input_shape=(1, 8, 8), classes=classes, topology=topo,
    )


# The study's one synthetic task and training recipe
STUDY_KIND, STUDY_CLASSES, STUDY_N, STUDY_NOISE = "blobs", 4, 480, 1.4
STUDY_EPOCHS, STUDY_LR, STUDY_BATCH = 30, 5e-3, 32
# The top Hessian eigenvalue is read at 5 states spread over the last half
# of training, on a fixed batch of the training split
CURVATURE_NAMES, CURVATURE_BATCH = ("baseline", "prebn_dual"), 96
CURVATURE_EPOCHS = range(STUDY_EPOCHS // 2, STUDY_EPOCHS, STUDY_EPOCHS // 2 // 5)


def _study_run(seed: int, name: str) -> dict:
    """One (seed, config) run of the stability study, built from the seed alone.

    Returns {"report": TrainReport}, plus for the configs in CURVATURE_NAMES
    "lambda_max": the (epoch, top Hessian eigenvalue) pairs over
    CURVATURE_EPOCHS.
    """
    from .analysis import hessian_topk

    data = gen_synthetic(STUDY_KIND, STUDY_N, STUDY_CLASSES, seed=1000 + seed, noise=STUDY_NOISE)
    net = build(ablation_config(name, classes=STUDY_CLASSES), seed=seed, dtype=np.float64)
    cfg = TrainConfig(epochs=STUDY_EPOCHS, lr=STUDY_LR, batch_size=STUDY_BATCH, seed=seed)
    if name not in CURVATURE_NAMES:
        return {"report": train(net, data, cfg)}
    probe = (data[0].x[:CURVATURE_BATCH], data[0].y[:CURVATURE_BATCH])
    lams = []

    def probe_curvature(network, epoch):
        if epoch in CURVATURE_EPOCHS:
            lams.append((epoch, hessian_topk(network, probe, 1, seed=7, max_iter=100)[0].value))

    return {"report": train(net, data, cfg, epoch_hook=probe_curvature), "lambda_max": lams}


def stability_experiment(seeds=(0, 1, 2, 3, 4), *, names=ABLATION_NAMES) -> dict:
    """Train every ablation config across seeds on one synthetic task.

    The canonical desk-scale stability study: one-step training (weights
    and activations binary from the start, the unstable regime), identical
    data per seed across configs. The curvature window is the meaningful
    per-run summary: an unstable run keeps visiting sharp states while the
    learning rate is still live, and one end-point snapshot of an annealed
    trajectory is a lottery.

    Returns {config: [run, ...]} in seed order, each run as _study_run
    returns it; the runs are independent of each other.
    """
    return {name: [_study_run(seed, name) for seed in seeds] for name in names}
