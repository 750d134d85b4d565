"""Compatibility stub: the kernel has one implementation, numpy.

``perfbench/hostinfo.py`` records ``available_backends()`` and
``backend_names()`` in its host fingerprint, and the benchmark is
frozen, so these two names stay.  The module goes once a
benchmark-only change drops that import.
"""


def available_backends() -> list:
    return ["numpy"]


def backend_names() -> list:
    return ["numpy"]
