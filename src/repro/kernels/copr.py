"""COPR warm-up training over a whole event stream.

:func:`copr_train_batch` trains a predictor with the no-prediction
(warm-up) form ``update(address, compressible)`` of
:meth:`repro.core.copr.CoprPredictor.update`, one event at a time.

COPR's components form a sequential predict-then-update recurrence:
each PaPR/LiPR allocation seeds from the state the previous event left.
The loop is the fastest exact path.  A columnar trainer (GI prefix
scans plus chunked PaPR/LiPR rounds over packed way matrices) measured
at most 0.51x its speed over table sizes from factor 64 to paper scale
and streams of 40 to 48k events: its per-round numpy calls and the walk
of the dict tables in and out of matrices cost more than the per-event
updates they replace (docs/PERFORMANCE.md, "The vector timing plane").
"""

from __future__ import annotations

__all__ = ["copr_train_batch"]


def copr_train_batch(copr, addresses, compressible) -> bool:
    """Train *copr* with ``update(address, outcome)`` per event.

    *addresses* and *compressible* are equal-length numpy columns.
    Records no accuracy statistics (warm-up training).  Always returns
    ``True``: every COPR configuration is supported.
    """
    update = copr.update
    for address, outcome in zip(addresses.tolist(), compressible.tolist()):
        update(address, outcome)
    return True
