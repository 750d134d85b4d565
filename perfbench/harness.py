"""The measuring frame every workload runs in.

A workload is a function of one :class:`Bench`.  It calls
:meth:`Bench.setup` (timed, repeated, median reported as ``setup_s``),
:meth:`Bench.once` for one-time set-up such as a server start and the
untimed warm-up of every phase, then iterates :meth:`Bench.rounds` for
``--seconds`` seconds, wrapping each timed operation in :meth:`Bench.op`.

Timings are reported net of hypervisor steal and at a reference host
speed.  On a shared virtual machine the host takes CPU time away from the
guest in bursts (up to half of an operation's CPU time on a 2-vCPU KVM
guest), and neighbours take cache and memory bandwidth, so the same work
costs up to half again as much CPU time in some minutes as in others;
both move wall times far more than most changes to the program would.
Each operation therefore

* reads the ``/proc/stat`` busy and steal ticks around itself and is
  scaled by the share of the requested CPU time that was granted,
  busy / (busy + steal): for a thread that only computes, that is the
  wall time it would have taken with no steal;
* runs :func:`hostinfo.speed_probe` just before itself, outside its
  timing and its round's wall time.

Every reported time, ``setup_s`` included, is then scaled by
``PROBE_REFERENCE_S`` over the run's median probe (:meth:`Bench.speed`):
the time it would have taken at the speed the probe reads on a quiet
host.  One factor per run, not one per operation: a single probe is
noisier than the drift it corrects within a run.  Raw wall-time medians
are printed alongside.

In a traced run (``--trace 1``) the rounds alternate untraced and traced:
layer wrappers are installed for the odd rounds only, so the per-layer
table comes from traced rounds while the untraced rounds of the same
process give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import hostinfo
import layers
from spans import Tracer

clock = time.perf_counter

SETUP_REPEATS = 3
#: rounds measured however short ``--seconds`` is: a traced run then has
#: at least one untraced and one traced round
MIN_ROUNDS = 2


def build_tables(workload) -> None:
    """Build every layer's stacked direct lookup tables up front, as a
    set-up step, so no timed operation pays for the first build."""
    import repro.core.kernels as kernels

    for layer in workload.portfolio.layers:
        kernels.build_layer_tables(
            workload.portfolio.elts_of(layer),
            workload.catalog.n_events,
            "direct",
            np.float64,
            kernels.KERNEL_RAGGED,
        )


class Op:
    """A timed operation's outcome: the CPU share the host granted."""

    granted = 1.0


class Bench:
    def __init__(
        self, root: Path, workload: str, seed: int, seconds: float, trace: bool
    ) -> None:
        self.root = root
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        scratch = root / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
        self.nproc = hostinfo.nproc()
        #: timed samples net of steal, split by whether their round was
        #: traced; ``raw`` keeps the wall-clock values
        self.samples: Dict[bool, Dict[str, List[float]]] = {
            False: defaultdict(list),
            True: defaultdict(list),
        }
        self.raw: Dict[str, List[float]] = defaultdict(list)
        #: every operation's wall and process CPU seconds, granted share
        #: and probe: the run's noise record
        self.op_log: List[dict] = []
        self.round_walls: Dict[bool, List[float]] = {False: [], True: []}
        self.probes: List[float] = []
        self.traced = False
        self._excluded = 0.0
        self.setup_times: List[float] = []
        self.once_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        #: end-to-end metrics: name -> (value, unit)
        self.metrics: Dict[str, tuple] = {}
        #: counters the program keeps itself, summed over traced rounds
        self.counters: Dict[str, float] = defaultdict(float)
        self.info: Dict[str, object] = {}

    # -- set-up ------------------------------------------------------------
    def _window(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.operation_span(name)

    def setup(self, prepare: Callable[[], object]):
        """Run ``prepare`` :data:`SETUP_REPEATS` times, timing each; returns
        the last result.  The previous result is dropped before the next
        repeat so peak memory holds one set of inputs."""
        result = None
        for _ in range(SETUP_REPEATS):
            result = None
            started = clock()
            with self._tracing(), self._window("setup"):
                result = prepare()
            self.setup_times.append(clock() - started)
        return result

    @contextlib.contextmanager
    def once(self):
        """One-time set-up (server start, references, warm-up): counted in
        ``setup_s`` once, not repeated."""
        started = clock()
        with self._tracing(), self._window("setup_once"):
            yield
        self.once_seconds += clock() - started

    @contextlib.contextmanager
    def _tracing(self):
        if self.tracer is None:
            yield
            return
        layers.install(self.tracer)
        try:
            yield
        finally:
            self.tracer.uninstall()

    # -- timed phase -------------------------------------------------------
    def rounds(self):
        """Yield round numbers for ``--seconds`` seconds (at least
        :data:`MIN_ROUNDS`)."""
        ticks = hostinfo.cpu_ticks()
        deadline = clock() + self.seconds
        index = 0
        while index < MIN_ROUNDS or clock() < deadline:
            self.traced = self.trace and index % 2 == 1
            if self.traced:
                layers.install(self.tracer)
            self._excluded = 0.0
            started = clock()
            try:
                yield index
            finally:
                wall = clock() - started - self._excluded
                if self.traced:
                    self.tracer.uninstall()
            self.round_walls[self.traced].append(wall)
            index += 1
        self.traced = False
        self.info["steal_pct"] = hostinfo.steal_percent(ticks, hostinfo.cpu_ticks())

    @contextlib.contextmanager
    def untimed(self):
        """Housekeeping inside a round that is not part of its wall time."""
        started = clock()
        try:
            yield
        finally:
            self._excluded += clock() - started

    @contextlib.contextmanager
    def op(self, kind: str):
        """One timed operation; its duration is a sample of ``kind``.

        Yields an :class:`Op` whose ``granted`` share (set on exit) scales
        samples taken inside the operation, such as request latencies."""
        started = clock()
        probe = hostinfo.speed_probe()
        self._excluded += clock() - started
        window = (
            self.tracer.operation_span(kind)
            if self.traced
            else contextlib.nullcontext()
        )
        op = Op()
        ticks = hostinfo.cpu_ticks()
        cpu = time.process_time()
        started = clock()
        with window:
            yield op
        wall = clock() - started
        cpu = time.process_time() - cpu
        after = hostinfo.cpu_ticks()
        granted = op.granted = hostinfo.granted_share(ticks, after)
        self.record(kind, wall, granted)
        self.probes.append(probe)
        self.op_log.append(
            dict(
                kind=kind,
                traced=self.traced,
                wall=wall,
                cpu=cpu,
                granted=granted,
                probe=probe,
            )
        )

    def record(self, kind: str, value: float, granted: float = 1.0) -> None:
        self.samples[self.traced][kind].append(value * granted)
        if not self.traced:
            self.raw[kind].append(value)

    def count(self, name: str, value: float) -> None:
        """Add to a program counter; kept for traced rounds only."""
        if self.traced:
            self.counters[name] += value

    def median(self, kind: str) -> float:
        """Median of the untraced samples of ``kind``, net of steal, at
        the reference host speed."""
        return statistics.median(self.samples[False][kind]) * self.speed()

    def speed(self) -> float:
        """Factor to the reference host speed: the reference probe over
        the run's median probe."""
        return hostinfo.PROBE_REFERENCE_S / statistics.median(self.probes)

    def raw_medians(self) -> Dict[str, float]:
        """Wall-clock medians of the untraced samples, for the record."""
        return {k: statistics.median(v) for k, v in self.raw.items() if v}

    # -- outcomes ----------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def setup_seconds(self, import_seconds: float) -> float:
        """Import, median set-up and one-time set-up, at the reference
        host speed."""
        wall = import_seconds + statistics.median(self.setup_times) + self.once_seconds
        self.info["setup_wall_s"] = wall
        return wall * self.speed()

    def tracing_overhead_pct(self, kinds) -> float:
        """Traced over untraced medians of the given sample kinds."""
        untraced = sum(statistics.median(self.samples[False][k]) for k in kinds)
        traced = sum(statistics.median(self.samples[True][k]) for k in kinds)
        return 100.0 * (traced / untraced - 1.0)

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.tmp.parent.rmdir()  # only when no other run is using it
