"""Correctness subsystem: differential fuzzer and invariant layer.

The DRAM reservation arithmetic exists twice: once as the reference
:meth:`~repro.dram.device.DramDevice.access` (two
:meth:`~repro.dram.device.PriorityTimeline.reserve` calls plus plain
stat updates), and once as the batch engine's fast path
(:func:`repro.sim.batch._device_fns` and the kernels built on it). This
package keeps the two honest:

* :mod:`repro.verify.fuzzer` — a differential fuzzer driving the reference
  device and the batch fast path (and whole paired interpreter/batch
  :class:`~repro.sim.system.System` runs) with identical seeded randomized
  streams, requiring bit-identical results.
* :mod:`repro.verify.invariants` — a runtime invariant layer (enabled via
  ``REPRO_VERIFY=1`` or ``SystemConfig(verify=True)``, zero-cost when off)
  checking per-access timing ordering, per-device counter conservation, and
  the lifecycle attribution audit on real workloads.

The CLI front-end is ``repro check`` (see :func:`repro.verify.fuzzer.run_check`).
"""

from repro.verify.fuzzer import CheckReport, run_check
from repro.verify.invariants import (
    InvariantChecker,
    InvariantViolation,
    verify_enabled,
)

__all__ = [
    "CheckReport",
    "InvariantChecker",
    "InvariantViolation",
    "run_check",
    "verify_enabled",
]
