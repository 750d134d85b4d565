"""SLO-grade quote serving: admission, deadlines, coalescing, brownout.

The serving tier the paper's real-time pricing story needs once quotes
stop being a benchmark and start being a service: offered load is not
under our control, so the front-end bounds what it *accepts* (admission
control), bounds how long anything it accepted may take (end-to-end
deadlines), merges duplicate in-flight work (coalescing), and degrades
in a documented order under sustained overload (brownout: batch lanes
throttle, then pause).  See ``README.md`` § "Serving under
load" and the ``SERVE-ABLATE`` experiment.
"""

from repro.serve.admission import (
    LANE_BATCH,
    LANE_INTERACTIVE,
    LANES,
    AdmissionGate,
    Overloaded,
    TokenBucket,
)
from repro.serve.brownout import (
    STATE_BROWNOUT,
    STATE_NORMAL,
    STATE_PAUSED,
    BrownoutController,
)
from repro.serve.loadgen import (
    LoadReport,
    measure_capacity,
    run_open_loop,
)
from repro.serve.service import QuoteFrontEnd

__all__ = [
    "AdmissionGate",
    "BrownoutController",
    "LANE_BATCH",
    "LANE_INTERACTIVE",
    "LANES",
    "LoadReport",
    "Overloaded",
    "QuoteFrontEnd",
    "STATE_BROWNOUT",
    "STATE_NORMAL",
    "STATE_PAUSED",
    "TokenBucket",
    "measure_capacity",
    "run_open_loop",
]
