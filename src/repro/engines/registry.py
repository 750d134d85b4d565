"""Engine registry: name → class, with keyword filtering.

Engines accept different keyword options (``n_cores`` only makes sense
for multicore, ``threads_per_block`` only for GPU engines...).  The
registry filters the caller's keyword arguments down to each engine's
constructor signature so high-level sweeps can pass a superset; a key
that no registered engine accepts is a typo and raises ``TypeError``.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Dict, Tuple, Type

from repro.engines.base import Engine
from repro.engines.gpu_optimized import GPUBasicEngine, GPUOptimizedEngine
from repro.engines.multicore import MulticoreEngine
from repro.engines.multigpu import MultiGPUEngine
from repro.engines.sequential import ReferenceEngine, SequentialEngine

_REGISTRY: Dict[str, Type[Engine]] = {
    ReferenceEngine.name: ReferenceEngine,
    SequentialEngine.name: SequentialEngine,
    MulticoreEngine.name: MulticoreEngine,
    GPUBasicEngine.name: GPUBasicEngine,
    GPUOptimizedEngine.name: GPUOptimizedEngine,
    MultiGPUEngine.name: MultiGPUEngine,
}


def available_engines() -> Tuple[str, ...]:
    """Registry names in the paper's presentation order."""
    return tuple(_REGISTRY)


def engine_class(name: str) -> Type[Engine]:
    """The engine class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {available_engines()}"
        ) from None


@functools.lru_cache(maxsize=None)
def _parameters(cls: Type[Engine]) -> frozenset:
    return frozenset(inspect.signature(cls.__init__).parameters) - {"self"}


def create_engine(name: str, **options: Any) -> Engine:
    """Instantiate engine ``name``, keeping only options it understands.

    Unknown names raise ``ValueError``.  Options another registered
    engine accepts are dropped (so sweep code can pass one option
    superset to all engines); an option *no* registered engine accepts
    raises ``TypeError`` naming it.
    """
    cls = engine_class(name)
    known = frozenset().union(*(_parameters(c) for c in _REGISTRY.values()))
    unknown = sorted(set(options) - known)
    if unknown:
        raise TypeError(
            f"unknown engine option(s) {unknown}; no registered engine "
            f"accepts them"
        )
    accepted = _parameters(cls)
    return cls(**{k: v for k, v in options.items() if k in accepted})
