"""The five implementations of aggregate risk analysis.

Mirrors the paper's Section III inventory:

=================  ====================================================
Registry name      Paper implementation
=================  ====================================================
``reference``      Algorithm 1 verbatim (correctness oracle; not timed
                   in the paper, provided here for validation)
``sequential``     (i) sequential C++ on one CPU core
``multicore``      (ii) C++/OpenMP on a multi-core CPU
``gpu``            (iii) basic CUDA on a many-core GPU (simulated): the
                   ``gpu-optimized`` engine with flags none and the
                   basic kernel's 20 registers per thread
``gpu-optimized``  (iv) optimised CUDA: chunking, loop unrolling,
                   reduced precision, kernel registers (simulated)
``multi-gpu``      (v) optimised kernel decomposed over multiple GPUs
                   managed by CPU threads (simulated)
=================  ====================================================

CPU engines report *measured* wall-clock activity profiles; GPU engines
additionally report *modeled* device seconds from the
:mod:`repro.gpusim` cost model.
"""

from repro.engines.base import Engine
from repro.engines.sequential import ReferenceEngine, SequentialEngine
from repro.engines.multicore import MulticoreEngine
from repro.engines.gpu_optimized import (
    GPUBasicEngine,
    GPUOptimizedEngine,
    OptimizationFlags,
)
from repro.engines.multigpu import MultiGPUEngine
from repro.engines.registry import available_engines, create_engine

__all__ = [
    "Engine",
    "ReferenceEngine",
    "SequentialEngine",
    "MulticoreEngine",
    "GPUBasicEngine",
    "GPUOptimizedEngine",
    "OptimizationFlags",
    "MultiGPUEngine",
    "available_engines",
    "create_engine",
]
