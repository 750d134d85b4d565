"""Multi-GPU context: a pool of simulated devices and its fork-join time.

Reproduces the paper's multi-GPU architecture (Section III): "a thread on
the CPU invokes and manages a GPU.  The CPU thread calls a method which
takes as input all the inputs required by the kernel and the pre-allocated
arrays for storing the outputs... The CPU threads are invoked in a
parallel manner."  The pool holds the devices; the shared
:class:`~repro.plan.planner.Planner` cuts the trials into one range per
device and the :class:`~repro.plan.scheduler.Scheduler` runs one real
host thread per device (the functional work is NumPy, which releases the
GIL).  The modeled multi-GPU time is the *maximum* over devices of
(transfers + kernel time), matching fork-join semantics.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.gpusim.device import DeviceSpec, TESLA_M2090
from repro.gpusim.kernel import GPUDevice
from repro.utils.validation import check_positive


class MultiGPU:
    """A homogeneous pool of simulated GPUs.

    Parameters
    ----------
    n_devices:
        Pool size (the paper uses four Tesla M2090s).
    spec:
        Hardware spec shared by all devices.
    """

    def __init__(self, n_devices: int, spec: DeviceSpec = TESLA_M2090) -> None:
        check_positive("n_devices", n_devices)
        self.devices: List[GPUDevice] = [
            GPUDevice(spec, device_id=i) for i in range(n_devices)
        ]

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @staticmethod
    def modeled_makespan(per_device_seconds: Sequence[float]) -> float:
        """Fork-join completion time: the slowest device's total."""
        if not per_device_seconds:
            return 0.0
        return max(per_device_seconds)

    @staticmethod
    def efficiency(
        single_device_seconds: float,
        multi_seconds: float,
        n_devices: int,
    ) -> float:
        """Parallel efficiency = speedup / devices (Figure 3b's metric)."""
        check_positive("n_devices", n_devices)
        if multi_seconds <= 0:
            raise ValueError(f"multi_seconds must be positive, got {multi_seconds}")
        speedup = single_device_seconds / multi_seconds
        return speedup / n_devices
