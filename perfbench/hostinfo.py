"""Host facts recorded with every run: the context for its noise.

The fingerprint (CPU count, cache sizes, numpy version, kernel backends)
and the CPU steal share are printed on every run.  The memory-bandwidth
probe runs in the traced run only, so its large array never shows in the
untraced run's ``peak_rss_mb``.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")

#: timed passes of the bandwidth probe
COPY_PASSES = 5


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    digits = text[:-1] if text[-1:] in "KMG" else text
    return int(digits) * scale


def cache_sizes() -> Dict[str, int]:
    """Unified or data cache bytes per level, as sysfs reports them
    (0 when a level is not reported)."""
    sizes: Dict[str, int] = {"l2": 0, "llc": 0}
    try:
        indices = sorted(_CACHE_DIR.glob("index*"))
    except OSError:
        return sizes
    deepest = 0
    for index in indices:
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        if level == 2:
            sizes["l2"] = size
        if level >= deepest:
            deepest, sizes["llc"] = level, size
    return sizes


def fingerprint() -> Dict[str, object]:
    """nproc, L2 and last-level cache bytes, numpy version, backends."""
    from repro.backends import available_backends, backend_names

    caches = cache_sizes()
    return {
        "nproc": nproc(),
        "l2_bytes": caches["l2"],
        "llc_bytes": caches["llc"],
        "numpy": np.__version__,
        "backends_available": available_backends(),
        "backends_registered": backend_names(),
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_ticks():
    """(busy, steal) clock ticks summed over all CPUs, from the ``cpu``
    line of ``/proc/stat``; ``None`` where the file is unreadable."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    fields += [0] * (8 - len(fields))
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def granted_share(before, after) -> float:
    """Share of the CPU time runnable threads asked for that the
    hypervisor granted between two :func:`cpu_ticks` readings:
    busy / (busy + steal), 1.0 when nothing ran or nothing is known."""
    if before is None or after is None:
        return 1.0
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    if busy <= 0:
        return 1.0
    return busy / (busy + steal)


def steal_percent(before, after) -> float | None:
    """Steal as a share of busy + steal time between two readings."""
    if before is None or after is None:
        return None
    return 100.0 * (1.0 - granted_share(before, after))


#: a 16 MiB table, past the L2, and 1M random positions in it
_PROBE_TABLE = np.random.default_rng(0).random(1 << 21)
_PROBE_INDEX = np.random.default_rng(1).integers(0, _PROBE_TABLE.size, 1 << 20)
_PROBE_GATHERS = 4
#: what :func:`speed_probe` reads on a quiet 2-vCPU KVM guest; timings
#: scaled by ``PROBE_REFERENCE_S / probe`` stay near their wall-clock size
PROBE_REFERENCE_S = 0.035


def speed_probe() -> float:
    """Thread CPU seconds for a fixed number of random gathers from a
    table past the L2: how fast the host runs this process right now.

    Neighbours on a shared host take cache and memory bandwidth, so the
    same instructions cost more CPU time in some minutes than in others.
    Stolen time is not CPU time of the thread, so steal does not move
    the probe."""
    started = time.thread_time()
    for _ in range(_PROBE_GATHERS):
        float(_PROBE_TABLE[_PROBE_INDEX].sum())
    return time.thread_time() - started


def copy_bandwidth(llc_bytes: int) -> Dict[str, float]:
    """Streaming read+write bandwidth of the host in GB/s: one thread per
    CPU passes once over its own chunk of one array at least four times
    the last-level cache (median of :data:`COPY_PASSES` passes).

    One in-place pass (``np.negative(a, out=a)``) reads and writes every
    byte once, the same traffic as a copy between two arrays, at half the
    memory.  NumPy releases the GIL inside the pass, so with one thread per
    CPU this is the bandwidth the multicore kernel competes for.
    """
    nbytes = max(4 * llc_bytes, 256 << 20)
    threads = nproc()
    array = np.ones(nbytes // 8, dtype=np.float64)  # pages touched here
    chunks = np.array_split(array, threads)
    rates = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _ in range(COPY_PASSES):
            started = time.perf_counter()
            list(pool.map(lambda chunk: np.negative(chunk, out=chunk), chunks))
            rates.append(2 * array.nbytes / (time.perf_counter() - started) / 1e9)
    del array, chunks
    return {
        "copy_gbps": statistics.median(rates),
        "probe_bytes": float(nbytes),
        "llc_bytes": float(llc_bytes),
        "threads": float(threads),
    }
