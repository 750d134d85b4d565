"""Literal pin of the paper outputs the bench CLI prints with no measuring.

``repro-bench all --model-only`` prints every experiment's analytic rows:
the FIG-3/FIG-4 multi-GPU scaling and block-size sweeps, the single-GPU
figures and the optimisation ablation.  Its stdout is hashed and compared
with a literal recorded before the multi-GPU model lost its alternative
staging schedule, so any drift in a printed paper number fails here.
Recorded on Python 3.11 with numpy 2.4.6; a platform that formats floats
differently fails too, and is a finding, not a reason to loosen the pin.
"""

from __future__ import annotations

import hashlib

from repro.bench.cli import main

#: md5 of ``python -m repro.bench.cli all --model-only`` stdout.
MODEL_ONLY_MD5 = "24cf6d9585a2e5500f1971f9c085bdaf"


def test_model_only_output_is_pinned(capsys):
    assert main(["all", "--model-only"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == MODEL_ONLY_MD5
