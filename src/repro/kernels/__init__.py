"""The vector data plane: columnar numpy kernels, bit-identical to scalar.

Where :mod:`repro.fastpath` removed Python cycles from the cycle-level
simulator without changing its per-request structure, this package
replaces whole per-record loops with columnar numpy kernels:

* bulk address-stream generation for every access pattern
  (:mod:`repro.kernels.tracegen`), feeding both
  :func:`repro.workloads.tracegen.generate_workload` and the workload
  bank's blob materialisation;
* batch 64-byte line synthesis and class evaluation
  (:mod:`repro.kernels.datagen`);
* vectorised size-only BDI/FPC classifiers over N x 64 byte matrices
  (:mod:`repro.kernels.classify`), consumed by
  :meth:`repro.compression.engine.CompressionEngine.is_compressible_many`;
* bulk scrambler keystream generation (:mod:`repro.kernels.scramble`);
* a batched :func:`repro.sim.functional.run_functional` pipeline
  (:mod:`repro.kernels.functional`) built on a chunked-rounds
  set-associative LRU kernel (:mod:`repro.kernels.lru`);
* the vector *timing* plane for the detailed simulator: batched
  functional warm-up for windows past the runner's size crossover and
  memo prewarm (:mod:`repro.kernels.timing`), with COPR trained by its
  scalar update loop (:mod:`repro.kernels.copr`), and batched LLC
  probes (:meth:`repro.cpu.cache.LastLevelCache.access_many`).

Every kernel is required to be **bit-identical** to the scalar path it
replaces: ``tests/test_kernels.py`` runs hypothesis differentials per
kernel and golden digest equality for whole runs with the vector path on
and off.

Control is the fastpath's :class:`~repro.fastpath.Gate`:

* environment: ``REPRO_VECTOR=0`` (or ``false``/``off``) disables the
  vector path process-wide before import;
* code: :func:`set_enabled`, or :func:`overridden` for scoped toggling
  (used by the differential tests and ``repro profile --vector off``).
"""

from __future__ import annotations

from repro.fastpath import Gate

__all__ = [
    "enabled",
    "overridden",
    "set_enabled",
]


_gate = Gate("REPRO_VECTOR")
enabled = _gate.enabled
set_enabled = _gate.set_enabled
overridden = _gate.overridden
