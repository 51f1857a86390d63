"""Command-line entry point.

Subcommands: verify, cost, condition, train, landscape, hessian, bench,
visualize. Every run is reproducible from its flag set and seed, and all
file outputs land under --out. The BDNET_THREADS environment variable caps
parallelism where a command can use it (bench always runs one thread).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import analysis, bench, verify
from .layers import BlockTopology
from .model import ModelConfig, build, checkpoint_of, save
from .quantize import (binarize_image, image_histogram, otsu_threshold,
                       otsu_two_thresholds, read_pgm, ternarize_image, write_pgm)
from .train import TrainConfig, ablation_config, gen_synthetic, load_csv_dataset, train


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_verify(args) -> int:
    results = verify.run_suite(args.cases, seed=args.seed, corrupt_pad=args.corrupt_pad)
    failures = [r for r in results if not r.ok]
    by_variant = {}
    for r in results:
        by_variant.setdefault(r.variant, []).append(r)
    for variant, rs in by_variant.items():
        bad = sum(1 for r in rs if not r.ok)
        shapes = sorted({(r.shape, r.spec.kernel, r.spec.stride, r.spec.padding) for r in rs})
        print(f"{variant}: {len(rs)} cases, {bad} failures")
        if args.list_cases:
            for shape, kernel, stride, padding in shapes:
                print(f"  shape={shape} kernel={kernel} stride={stride} padding={padding}")
    print(f"total: {len(results)} cases, {len(failures)} failures")
    return 1 if failures else 0


def cmd_cost(args) -> int:
    out = _outdir(args)
    if args.table1:
        rows = analysis.reference_op_table()
        print(f"{'operation':24s} {'count':>14s} {'ops':>14s}")
        for r in rows:
            print(f"{r['name']:24s} {r['macs']:14d} {r['ops']:14.1f}")
        path = os.path.join(out, "cost.csv")
        analysis.CostReport([r["cost"] for r in rows]).write_csv(path)
        print(f"wrote {path}")
        return 0
    config = _model_config(args)
    net = build(config, seed=args.seed)
    report = analysis.count_ops(net)
    path = os.path.join(out, "cost.csv")
    report.write_csv(path)
    print(f"model variant={config.variant} n_convs={config.n_convs}: "
          f"BOPs={report.bops} FLOPs={report.flops} OPs={report.ops:.1f}")
    print(f"wrote {path}")
    return 0


def cmd_condition(args) -> int:
    out = _outdir(args)
    rng = np.random.default_rng(args.seed)
    j = analysis.random_dw_jacobian(args.channels, args.block_dim, rng)
    alphas = [0.0] if args.include_zero else []
    alphas += list(np.logspace(np.log10(args.alpha_min), np.log10(args.alpha_max), args.num))
    path = os.path.join(out, "condition.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "kappa_j", "kappa_j_prime", "kappa_h", "kappa_h_prime",
                    "approx_kappa_j_prime", "approx_abs_error"])
        for alpha in alphas:
            rep = analysis.condition_numbers(j, float(alpha))
            w.writerow([f"{alpha:.6g}", repr(rep.kappa_j), repr(rep.kappa_j_prime),
                        repr(rep.kappa_h), repr(rep.kappa_h_prime),
                        repr(rep.approx_kappa_j_prime), repr(rep.approx_abs_error)])
            print(f"alpha={alpha:10.3f} kappa(J)={rep.kappa_j:10.3f} "
                  f"kappa(J')={rep.kappa_j_prime:8.4f} approx_err={rep.approx_abs_error:.3e}")
    print(f"wrote {path}")
    return 0


def _model_config(args) -> ModelConfig:
    if getattr(args, "ablation", None):
        return ablation_config(args.ablation)
    topo = {"pre": BlockTopology.PRE_BN_RESIDUAL, "post": BlockTopology.POST_BN_RESIDUAL,
            "none": BlockTopology.NO_RESIDUAL}[args.topology]
    return ModelConfig(variant=args.variant, n_convs=args.n_convs,
                       width_multiplier=args.width, topology=topo)


def cmd_train(args) -> int:
    out = _outdir(args)
    config = ablation_config(args.config) if args.config else _model_config(args)
    if args.train_csv:
        tr = load_csv_dataset(args.train_csv, config.input_shape, config.classes, "train")
        va = load_csv_dataset(args.val_csv or args.train_csv, config.input_shape,
                              config.classes, "val")
    else:
        tr, va = gen_synthetic(args.data, args.samples, config.classes, seed=args.seed,
                               image_size=config.input_shape[1],
                               channels=config.input_shape[0], noise=args.noise)
    net = build(config, seed=args.seed, dtype=np.float64)
    cfg = TrainConfig(optimizer=args.optimizer, schedule=args.schedule, lr=args.lr,
                      weight_decay=args.weight_decay, epochs=args.epochs,
                      batch_size=args.batch_size, seed=args.seed, step=args.step)
    report = train(net, (tr, va), cfg)
    path = os.path.join(out, "train_report.csv")
    report.write_csv(path)
    ck_path = os.path.join(out, "model.ckpt")
    with open(ck_path, "wb") as fh:
        fh.write(save(checkpoint_of(net)))
    print(f"final train acc {report.final('train'):.4f}, val acc {report.final('val'):.4f}")
    print(f"wrote {path} and {ck_path}")
    return 0


def _trained_net(args, dtype=np.float64):
    config = ablation_config(args.config) if args.config else _model_config(args)
    tr, va = gen_synthetic("blobs", args.samples, config.classes, seed=args.seed,
                           image_size=config.input_shape[1], channels=config.input_shape[0])
    net = build(config, seed=args.seed, dtype=dtype)
    if args.epochs > 0:
        cfg = TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed)
        train(net, (tr, va), cfg)
    batch = (tr.x[: args.batch_size], tr.y[: args.batch_size])
    return net, batch


def cmd_landscape(args) -> int:
    out = _outdir(args)
    net, batch = _trained_net(args)
    xs, ys, losses = analysis.landscape_grid(net, batch, args.direction_seed,
                                             (args.grid, args.span), mode=args.mode)
    path = os.path.join(out, "landscape.csv")
    analysis.write_landscape_csv(path, xs, ys, losses)
    print(f"grid {losses.shape}: center loss {losses[ys.size // 2, xs.size // 2]:.6f}, "
          f"max {losses.max():.6f}")
    print(f"wrote {path}")
    return 0


def cmd_hessian(args) -> int:
    out = _outdir(args)
    if args.mode == "probe":
        rng = np.random.default_rng(args.seed)
        eigs = np.sort(rng.uniform(0.5, 10.0, args.dim))[::-1]
        q, _ = np.linalg.qr(rng.standard_normal((args.dim, args.dim)))
        a = q @ np.diag(eigs) @ q.T
        estimates = analysis.hessian_topk_operator(lambda v: a @ v, args.dim, args.k,
                                                   seed=args.seed)
        print("constructed:", np.round(eigs[: args.k], 6))
    else:
        net, batch = _trained_net(args)
        estimates = analysis.hessian_topk(net, batch, args.k, seed=args.seed)
    values = [e.value for e in estimates]
    print("estimated:  ", np.round(values, 6))
    for e in estimates:
        flag = "" if e.converged else " (not converged)"
        print(f"  lambda={e.value:.6g} residual={e.residual:.2e}{flag}")
    path = os.path.join(out, "spectrum.csv")
    analysis.write_spectrum_csv(path, values)
    print(f"wrote {path}")
    return 0


def _parse_geometry(text: str):
    try:
        hw, c = text.split(":")
        h, w = hw.lower().split("x")
        return int(h), int(w), int(c)
    except Exception as e:
        raise argparse.ArgumentTypeError(f"geometry must look like 56x56:128, got {text!r}") from e


def cmd_bench(args) -> int:
    out = _outdir(args)
    path = os.path.join(out, os.path.basename(args.bench_out))
    results = bench.bench_suite(args.geometry, reps=args.reps, warmup=args.warmup,
                                out_path=path, seed=args.seed)
    for r in results:
        print(f"{r.op:16s} median {r.median_ms:9.3f} ms   iqr {r.iqr_ms:8.3f} ms   faults {r.faults:6d}")
    print(f"wrote {path}")
    return 0


def cmd_visualize(args) -> int:
    out = _outdir(args)
    gray = read_pgm(args.input)
    hist = image_histogram(gray)
    t = otsu_threshold(hist)
    if args.t1 is not None and args.t2 is not None:
        t1, t2 = args.t1, args.t2
    else:
        t1, t2 = otsu_two_thresholds(hist)
    two = binarize_image(gray, t)
    three = ternarize_image(gray, t1, t2)
    paths = {}
    for name, img in (("gray", gray), ("otsu", two), ("ternary", three)):
        p = os.path.join(out, f"{name}.pgm")
        write_pgm(p, img)
        paths[name] = p
    print(f"otsu threshold {t}; ternary thresholds ({t1}, {t2})")
    print(f"levels: otsu {len(np.unique(two))}, ternary {len(np.unique(three))}")
    for p in paths.values():
        print(f"wrote {p}")
    return 0


def _add_model_flags(p):
    p.add_argument("--config", choices=("baseline", "prebn", "dual", "prebn_dual"),
                   default=None, help="desk-scale ablation preset (overrides other model flags)")
    p.add_argument("--variant", choices=("A", "B"), default="A")
    p.add_argument("--n-convs", type=int, default=2, dest="n_convs")
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--topology", choices=("pre", "post", "none"), default="pre")


def _add_train_flags(p):
    p.add_argument("--data", choices=("blobs", "spirals"), default="blobs")
    p.add_argument("--train-csv", default=None, dest="train_csv",
                   help="external dataset as label,pix0,pix1,... rows (overrides --data)")
    p.add_argument("--val-csv", default=None, dest="val_csv")
    p.add_argument("--samples", type=int, default=480)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--weight-decay", type=float, default=0.0, dest="weight_decay")
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--schedule", choices=("cosine", "linear"), default="cosine")
    p.add_argument("--step", choices=("one-step", "two-step"), default="one-step")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bitconv",
                                     description="Bit-packed binary/1.58-bit conv toolkit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory (created if absent)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="randomized kernel-vs-oracle equivalence suite")
    p.add_argument("--cases", type=int, default=200, help="cases per kernel variant")
    p.add_argument("--corrupt-pad", action="store_true", dest="corrupt_pad",
                   help="inject pad-bit corruption (must make the suite fail)")
    p.add_argument("--list-cases", action="store_true", dest="list_cases",
                   help="list the distinct tested shapes per variant")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cost", help="OP/BOP/FLOP cost model")
    p.add_argument("--table1", action="store_true",
                   help="print the four canonical 56x56/128ch conv rows")
    _add_model_flags(p)
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("condition", help="condition-number sweep over the BN scale")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--block-dim", type=int, default=16, dest="block_dim")
    p.add_argument("--alpha-min", type=float, default=10.0, dest="alpha_min")
    p.add_argument("--alpha-max", type=float, default=1e4, dest="alpha_max")
    p.add_argument("--num", type=int, default=9)
    p.add_argument("--include-zero", action="store_true", dest="include_zero")
    p.set_defaults(fn=cmd_condition)

    p = sub.add_parser("train", help="train a desk-scale model on synthetic data")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("landscape", help="filter-normalized loss landscape grid")
    _add_model_flags(p)
    p.add_argument("--samples", type=int, default=240)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--batch-size", type=int, default=64, dest="batch_size")
    p.add_argument("--direction-seed", type=int, default=1, dest="direction_seed")
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("--span", type=float, default=1.0)
    p.add_argument("--mode", choices=("2d-line", "2d-surface"), default="2d-surface")
    p.set_defaults(fn=cmd_landscape)

    p = sub.add_parser("hessian", help="top-k Hessian eigenvalues")
    p.add_argument("--mode", choices=("probe", "net"), default="probe")
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--k", type=int, default=5)
    _add_model_flags(p)
    p.add_argument("--samples", type=int, default=240)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--batch-size", type=int, default=64, dest="batch_size")
    p.set_defaults(fn=cmd_hessian)

    p = sub.add_parser("bench", help="single-threaded conv micro-benchmarks")
    p.add_argument("--geometry", type=_parse_geometry, default=(56, 56, 128),
                   help="HxW:C, e.g. 56x56:128")
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--bench-out", default="latency.csv", dest="bench_out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("visualize", help="grayscale / two-level / three-level PGM triptych")
    p.add_argument("--input", required=True, help="8-bit binary PGM (P5)")
    p.add_argument("--t1", type=int, default=None)
    p.add_argument("--t2", type=int, default=None)
    p.set_defaults(fn=cmd_visualize)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
