"""bitconv: bit-packed binary and 1.58-bit depth-wise convolutions.

A from-scratch numpy library with five capability groups:

* tensor     -- dense NCHW tensors, bit-packed sign tensors, XNOR-popcount
* quantize   -- sign and three-level quantizers, STE gradients, Otsu utilities
* kernels    -- float reference and bit-packed binary conv kernels
* layers     -- residual block topologies and skip-path helpers
* model      -- layers (batch norm, residual block, shifted PReLU), the
                desk-scale network builder, and checkpoints
* train      -- quantization-aware trainer and synthetic data
* analysis   -- cost model, Jacobian/condition lab, Hessian top-k, landscapes
* bench      -- single-threaded latency micro-benchmarks
"""

from .tensor import BitTensor, pack, unpack, xnor_popcount_dot
from .quantize import (BinQuantParams, DualQuantParams, binarize, ternarize,
                       effective_bits, ste_grad_sign, otsu_threshold, ternarize_image)
from .kernels import ConvSpec, BinaryConvWeights, conv_float, conv_binary, conv_multi_dw
from .layers import BlockTopology, broadcast_residual
from .model import ModelConfig, ModelCheckpoint, build, save, load
# NB: the train() entry point stays at bitconv.train.train so the submodule
# name is not shadowed by a function attribute.
from .train import TrainConfig, Dataset, TrainReport, backward, gen_synthetic
from .analysis import (CostReport, ConditionReport, count_ops, jacobian_of_block,
                       condition_numbers, hessian_topk, landscape_grid)
from .bench import BenchResult, bench_op, bench_suite

__version__ = "0.1.0"

__all__ = [
    "BitTensor", "pack", "unpack", "xnor_popcount_dot",
    "BinQuantParams", "DualQuantParams", "binarize", "ternarize",
    "effective_bits", "ste_grad_sign", "otsu_threshold", "ternarize_image",
    "ConvSpec", "BinaryConvWeights", "conv_float", "conv_binary", "conv_multi_dw",
    "BlockTopology", "broadcast_residual",
    "ModelConfig", "ModelCheckpoint", "build", "save", "load",
    "TrainConfig", "Dataset", "TrainReport", "backward", "gen_synthetic",
    "CostReport", "ConditionReport", "count_ops", "jacobian_of_block",
    "condition_numbers", "hessian_topk", "landscape_grid",
    "BenchResult", "bench_op", "bench_suite",
    "__version__",
]
