"""Vector timing plane: batched warm-up + memo prewarm for the
detailed simulator.

The detailed timing path (``repro.sim.runner.run_benchmark``) spends a
large share of its wall clock outside the event loop proper: the
functional warm-up streams every record through the LLC and the
controller's training state one Python call at a time, and the timed
window then repeatedly recomputes pure per-line values (content bytes,
compressibility classes, scrambler keystreams) that batch kernels can
produce up front.  This module vectorises both, bit-identically:

* :func:`warm_up_vector` replays the warm-up window from the workload's
  trace columns — one :meth:`LastLevelCache.access_many` pass, analytic
  store-version reconstruction (the :mod:`repro.kernels.functional`
  searchsorted machinery), bulk materialisation of the controller's
  stored-state dicts, one more LRU pass for the metadata cache, and
  COPR trained with its scalar update over the reconstructed event
  columns (:func:`repro.kernels.copr.copr_train_batch`) — then rebuilds
  ``workload.traces`` to start at the timed window.  Any configuration
  it cannot mirror exactly returns ``False`` with no state touched; the
  caller keeps the scalar loop.  The runner only calls it for windows
  of at least ``repro.sim.runner.VECTOR_WARMUP_MIN_EVENTS`` records:
  below that its fixed costs make it slower than the scalar loop.
* :func:`prewarm_timed_phase` batch-fills the pure memo caches the
  timed window will consult — ``DataModel`` content/class memos at each
  line's warm-state version and the scrambler's keystream cache — so
  first-touch boot encodes hit warm caches.  Every memo is a pure
  function of (line, version) or address, so prewarming is unobservable
  in the results.
"""

from __future__ import annotations

import numpy as np

from ..fastpath import MEMO_ENTRIES
from ..util.bitops import CACHELINE_BYTES
from .copr import copr_train_batch
from .datagen import line_classes, lines_data
from .functional import (
    _classes_routed,
    _materialize_metadata_lru,
    _metadata_cache_empty,
    _route_models,
)
from .lru import lru_simulate

__all__ = ["warm_up_vector", "prewarm_timed_phase"]

#: Leave headroom under the clear-on-full memo caps so prewarming never
#: triggers the wipe it is trying to avoid.
_MEMO_HEADROOM = 64


def _interleaved_window(columns, count):
    """Round-robin interleave the first *count* records of every core.

    Returns ``(addresses, is_store)`` in scalar warm-up order, or
    ``None`` when any core carries fewer than *count* records.
    """
    address_rows = []
    op_rows = []
    for addresses, __, ops in columns:
        row = np.asarray(addresses, dtype=np.uint64)
        if row.shape[0] < count:
            return None
        address_rows.append(row[:count])
        op_rows.append(np.asarray(ops, dtype=np.uint8)[:count])
    addresses = np.stack(address_rows).T.ravel()
    is_store = np.stack(op_rows).T.ravel() == 1  # MemOp.STORE.value
    return addresses, is_store


def warm_up_vector(workload, llc, controller, warmup_per_core: int) -> bool:
    """Vector replacement for ``repro.sim.runner._warm_up``.

    Leaves the LLC, the controller's training state, the data model's
    version counters, and ``workload.traces`` exactly as the scalar
    warm-up loop would, then zeroes the statistics the same way.
    Returns ``False`` — with *no* state touched — when the workload or
    controller shape cannot be mirrored exactly.
    """
    from ..core.controllers import (
        AttacheController,
        BaselineController,
        IdealController,
        MetadataCacheController,
    )
    from ..cpu.cache import CacheStats
    from ..workloads.bank import replay_records

    columns = getattr(workload, "columns", None)
    if not columns or warmup_per_core <= 0:
        return False
    # Exact types only: subclasses may override the warm hooks.
    kind = type(controller)
    if kind not in (
        BaselineController,
        IdealController,
        MetadataCacheController,
        AttacheController,
    ):
        return False
    if any(llc._lines):
        return False
    data_model = workload.data_model
    if not hasattr(data_model, "regions"):
        return False
    compressed = kind is not BaselineController
    if compressed and (
        controller._stored_compressed or controller._version_written
    ):
        return False
    window = _interleaved_window(columns, warmup_per_core)
    if window is None:
        return False
    addresses, is_store = window

    outcome = llc.access_many(addresses, is_store)
    lines = (addresses >> np.uint64(6)).astype(np.int64)
    total = lines.shape[0]

    # note_store replay: the scalar loop bumps the owning region model's
    # version counter once per store; only the final counts matter.
    regions = data_model.regions
    store_positions = np.nonzero(is_store)[0]
    store_lines = lines[store_positions]
    if store_lines.size:
        unique_store, store_counts = np.unique(
            store_lines, return_counts=True
        )
        owners = _route_models(data_model, unique_store.astype(np.uint64))
        for region_index in range(len(regions)):
            member = np.nonzero(owners == region_index)[0]
            if not member.size:
                continue
            versions = regions[region_index][2]._versions
            for line, count in zip(
                unique_store[member].tolist(), store_counts[member].tolist()
            ):
                versions[line] = versions.get(line, 0) + count

    if compressed:
        # Miss/write-back event reconstruction, exactly as in
        # kernels.functional.simulate_events.
        miss = ~outcome.hit
        miss_pos = outcome.pos[miss]
        miss_line = outcome.key[miss]
        wb_line = outcome.evict_key[miss]
        wb_flag = outcome.evict_dirty[miss]
        event_counts = 1 + wb_flag.astype(np.int64)
        ends = np.cumsum(event_counts)
        starts = ends - event_counts
        n_events = int(ends[-1]) if ends.shape[0] else 0
        ev_is_wb = np.zeros(n_events, dtype=bool)
        ev_is_wb[starts[wb_flag]] = True
        ev_node = np.repeat(np.arange(miss_pos.shape[0]), event_counts)
        ev_pos = miss_pos[ev_node]
        ev_line = np.where(ev_is_wb, wb_line[ev_node], miss_line[ev_node])

        unique_lines = np.unique(lines)
        stride = np.int64(total + 1)
        store_keys = np.sort(
            np.searchsorted(unique_lines, store_lines) * stride
            + store_positions
        )
        wb_index = np.nonzero(ev_is_wb)[0]
        read_index = np.nonzero(~ev_is_wb)[0]
        wb_ids = np.searchsorted(unique_lines, ev_line[wb_index])
        # warm_write records the class/version at the victim's current
        # store count; the pos-p store targets the requesting line,
        # never the victim, so <= and < coincide.
        wb_versions = (
            np.searchsorted(
                store_keys, wb_ids * stride + ev_pos[wb_index], side="right"
            )
            - np.searchsorted(store_keys, wb_ids * stride, side="left")
        )
        wb_classes = _classes_routed(
            data_model, ev_line[wb_index].astype(np.uint64), wb_versions
        )
        # warm_read initialises never-stored lines at version 0 and
        # otherwise returns the stored class — i.e. the last preceding
        # write-back's class, else the version-0 class.
        rd_ids = np.searchsorted(unique_lines, ev_line[read_index])
        wb_sort = np.argsort(wb_ids * stride + ev_pos[wb_index])
        wb_keys_sorted = (wb_ids * stride + ev_pos[wb_index])[wb_sort]
        wb_classes_sorted = wb_classes[wb_sort]
        lo = np.searchsorted(wb_keys_sorted, rd_ids * stride, side="left")
        hi = np.searchsorted(
            wb_keys_sorted, rd_ids * stride + ev_pos[read_index], side="left"
        )
        has_prior = hi > lo
        rd_classes = _classes_routed(
            data_model,
            ev_line[read_index].astype(np.uint64),
            np.zeros(read_index.shape[0], dtype=np.int64),
        )
        rd_classes[has_prior] = wb_classes_sorted[
            np.maximum(hi - 1, 0)[has_prior]
        ]

        # Stored-state materialisation: the last write-back per line
        # wins; lines only ever warm-read keep their version-0 class.
        stored_compressed = controller._stored_compressed
        version_written = controller._version_written
        wb_lines_arr = ev_line[wb_index]
        if wb_index.size:
            order = np.argsort(wb_ids * stride + ev_pos[wb_index])
            sorted_ids = wb_ids[order]
            last = np.empty(order.size, dtype=bool)
            last[-1] = True
            last[:-1] = sorted_ids[:-1] != sorted_ids[1:]
            final_rows = order[last]
            for line, cls, version in zip(
                wb_lines_arr[final_rows].tolist(),
                wb_classes[final_rows].tolist(),
                wb_versions[final_rows].tolist(),
            ):
                stored_compressed[line] = cls
                version_written[line] = version
        read_only = np.setdiff1d(
            np.unique(ev_line[read_index]), np.unique(wb_lines_arr)
        )
        if read_only.size:
            read_only_classes = _classes_routed(
                data_model,
                read_only.astype(np.uint64),
                np.zeros(read_only.size, dtype=np.int64),
            )
            for line, cls in zip(
                read_only.tolist(), read_only_classes.tolist()
            ):
                stored_compressed[line] = cls
                version_written[line] = 0

        if kind is MetadataCacheController:
            metadata_cache = controller.metadata_cache
            if metadata_cache.policy == "lru" and _metadata_cache_empty(
                metadata_cache
            ):
                blocks = ev_line // metadata_cache.coverage_lines
                md = lru_simulate(
                    blocks,
                    ev_is_wb,
                    metadata_cache._sets,
                    metadata_cache._ways,
                )
                stats = metadata_cache.stats
                stats.accesses += md.accesses
                stats.hits += md.hits
                stats.installs += md.misses
                stats.dirty_evictions += md.dirty_evictions
                _materialize_metadata_lru(metadata_cache, md)
            else:
                access = metadata_cache.access
                for line, dirty in zip(ev_line.tolist(), ev_is_wb.tolist()):
                    access(line, make_dirty=dirty)

        if kind is AttacheController:
            ev_comp = np.zeros(n_events, dtype=bool)
            ev_comp[wb_index] = wb_classes
            ev_comp[read_index] = rd_classes
            copr_train_batch(
                controller.copr, ev_line * CACHELINE_BYTES, ev_comp
            )

    # The timed window resumes where the warm-up stopped.
    workload.traces = [
        replay_records(
            memoryview(addresses_col)[warmup_per_core:],
            memoryview(gaps_col)[warmup_per_core:],
            memoryview(ops_col)[warmup_per_core:],
        )
        for addresses_col, gaps_col, ops_col in columns
    ]
    llc.stats = CacheStats()
    controller.reset_stats()
    return True


def prewarm_timed_phase(workload, controller, offset: int, count: int) -> None:
    """Batch-fill the pure memo caches the timed window will consult.

    Unique lines of the timed window (columns ``[offset:offset+count]``)
    get their compressibility class memoised at the version the
    controller's warm state pins (``_version_written``, or 0 for
    untouched lines) — the version every first-touch read will ask
    for.  BLEM controllers, the only ones that read line bytes (boot
    encodes and verification reads), also get each line's content at
    that version and the scrambler keystream for its base address;
    ideal and metadata-cache controllers read classes only, so their
    content is never generated.  All three caches are pure functions of
    their key, so this changes no simulated outcome, only when the work
    happens.
    """
    columns = getattr(workload, "columns", None)
    if not columns or count <= 0:
        return
    version_written = getattr(controller, "_version_written", None)
    if version_written is None:
        return
    data_model = workload.data_model
    if not hasattr(data_model, "regions"):
        return
    blem = getattr(controller, "blem", None)
    rows = []
    for addresses, __, ___ in columns:
        row = np.asarray(addresses, dtype=np.uint64)
        rows.append(row[offset: offset + count] >> np.uint64(6))
    unique_lines = np.unique(np.concatenate(rows)).astype(np.int64)
    if not unique_lines.size:
        return
    versions = np.fromiter(
        (version_written.get(line, 0) for line in unique_lines.tolist()),
        dtype=np.int64,
        count=unique_lines.shape[0],
    )
    owners = _route_models(data_model, unique_lines.astype(np.uint64))
    regions = data_model.regions
    for region_index in range(len(regions)):
        member = np.nonzero(owners == region_index)[0]
        if not member.size:
            continue
        model = regions[region_index][2]
        member_lines = unique_lines[member].astype(np.uint64)
        member_versions = versions[member]
        limit = MEMO_ENTRIES - _MEMO_HEADROOM
        if blem is not None:
            content_cache = model._content_cache
            missing = np.fromiter(
                (
                    (line, version) not in content_cache
                    for line, version in zip(
                        member_lines.tolist(), member_versions.tolist()
                    )
                ),
                dtype=bool,
                count=member_lines.shape[0],
            )
            if missing.any() and len(content_cache) + int(missing.sum()) < limit:
                need = np.nonzero(missing)[0]
                matrix = lines_data(
                    model, member_lines[need],
                    member_versions[need].astype(np.uint64),
                )
                for i, (line, version) in enumerate(
                    zip(
                        member_lines[need].tolist(),
                        member_versions[need].tolist(),
                    )
                ):
                    content_cache[(line, version)] = matrix[i].tobytes()
        class_cache = model._class_cache
        if (
            class_cache is not None
            and len(class_cache) + member_lines.shape[0] < limit
        ):
            classes = line_classes(model, member_lines, member_versions)
            for line, version, cls in zip(
                member_lines.tolist(),
                member_versions.tolist(),
                classes.tolist(),
            ):
                class_cache[(line, version)] = cls

    if blem is None:
        return
    scrambler = blem._scrambler
    keystreams = scrambler._keystreams
    line_addresses = unique_lines * CACHELINE_BYTES
    missing_addresses = [
        address
        for address in line_addresses.tolist()
        if address not in keystreams
    ]
    if missing_addresses and (
        len(keystreams) + len(missing_addresses)
        < MEMO_ENTRIES - _MEMO_HEADROOM
    ):
        from .scramble import keystream_matrix

        matrix = keystream_matrix(
            scrambler.seed,
            np.asarray(missing_addresses, dtype=np.uint64),
        )
        for address, row in zip(missing_addresses, matrix):
            raw = row.tobytes()
            keystreams[address] = (raw, int.from_bytes(raw, "little"))
