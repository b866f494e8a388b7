"""The benchmark's fixed inputs.

The application sets are committed name lists, so registering a new
suite workload changes nothing this benchmark measures. The suite
workloads keep their registered input seeds (the modeled-statistics
pin depends on them); ``--seed`` only orders them within a pass.

The served kernels are the ones ``serve`` puts behind the HTTP server:
vecAdd and the Table-1 ``throughput`` kernel. Each request kind has a
fixed launch shape, so its modeled statistics are pinned too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

#: Compute-uniform, memory-bound, barrier-heavy and micro workloads:
#: the batched path, guest memory and warp formation dominate and
#: yields are rare.
UNIFORM = (
    "AlignedTypes", "AsyncAPI", "BicubicTexture", "BinomialOptions",
    "BlackScholes", "BoxFilter", "Clock", "ConvolutionSeparable",
    "DwtHaar1D", "FastWalshTransform", "ImageDenoising", "MatrixMul",
    "MonteCarlo", "Nbody", "QuasirandomGenerator", "RecursiveGaussian",
    "Reduction", "ScalarProd", "Scan", "ScanLargeArray",
    "SimpleVoteIntrinsics", "SobelFilter", "SobolQRNG", "Template",
    "Transpose", "TransposeNew", "cp", "throughput",
)

#: Divergent and atomic workloads: yield spill/restore, fallback
#: execution and unbatched atomics dominate.
DIVERGENT = (
    "AbsDiff", "Bisect", "BitonicSort", "Collatz", "Eigenvalues",
    "GradClamp", "Histogram256", "Histogram64", "MersenneTwister",
    "OptionPayoff", "SharedToggle", "SimpleAtomicIntrinsics",
    "ThreadFenceReduction", "mri-fhd", "mri-q",
)

#: Every module compiled by ``compile``.
ALL = tuple(sorted(UNIFORM + DIVERGENT))

VECADD_PTX = r"""
.version 2.3
.target sim
.entry vecAdd (.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<2>;

  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  ld.param.u32 %r5, [n];
  setp.ge.u32 %p1, %r4, %r5;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [a];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.f32 %f1, [%rd3];
  ld.param.u64 %rd4, [b];
  add.u64 %rd5, %rd4, %rd1;
  ld.global.f32 %f2, [%rd5];
  add.f32 %f3, %f1, %f2;
  ld.param.u64 %rd6, [c];
  add.u64 %rd7, %rd6, %rd1;
  st.global.f32 [%rd7], %f3;
DONE:
  exit;
}
"""

#: vecAdd elements per launch (one CTA). The served launches are
#: small, so a request's time is mostly the path to and from the
#: machine, and a pass over the request list is cheap enough to repeat.
VECADD_N = 64
VECADD_BLOCK = 64
#: throughput launch: one CTA of 16 threads, 1 loop iteration.
THROUGHPUT_THREADS = 16
THROUGHPUT_ITERS = 1
#: float32 elements per bulk transfer. Large enough that JSON
#: serialization, not the request round trip, sets transfer latency.
TRANSFER_N = 32768


@dataclass(frozen=True)
class LaunchShape:
    kernel: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]


LAUNCHES: Dict[str, LaunchShape] = {
    "vecAdd": LaunchShape(
        "vecAdd", (VECADD_N // VECADD_BLOCK, 1, 1), (VECADD_BLOCK, 1, 1)
    ),
    "throughput": LaunchShape(
        "throughput", (1, 1, 1), (THROUGHPUT_THREADS, 1, 1)
    ),
}


def served_modules() -> Dict[str, str]:
    """PTX source of the served modules, by file stem."""
    from repro.workloads import get_workload

    return {
        "vecAdd": VECADD_PTX,
        "throughput": get_workload("throughput").module_source(),
    }


def vecadd_inputs(rng: np.random.Generator):
    a = rng.standard_normal(VECADD_N).astype(np.float32)
    b = rng.standard_normal(VECADD_N).astype(np.float32)
    return a, b


def vecadd_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a + b).astype(np.float32)


def throughput_reference() -> np.ndarray:
    from repro.workloads import get_workload

    return get_workload("throughput").reference(
        THROUGHPUT_ITERS, THROUGHPUT_THREADS
    )


def same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    left = np.ascontiguousarray(left, dtype=np.float32)
    right = np.ascontiguousarray(right, dtype=np.float32)
    return left.shape == right.shape and bool(
        np.array_equal(left.view(np.uint32), right.view(np.uint32))
    )
