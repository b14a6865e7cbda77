"""Channel-level command scheduling: FR-FCFS with read priority.

The scheduler is event-driven at command granularity.  ``advance(until)``
issues ACT/PRE/RD/WR/REF commands in time order while their earliest
legal issue cycles fall within the horizon, and returns the requests
whose data transfer got scheduled (with completion cycles).  The global
simulator interleaves channel advancement with core-side events.

Policy, per the paper's methodology (Section V):

* reads have priority over writes;
* writes collect in a write buffer and drain in bursts once a high
  watermark is reached (until a low watermark);
* FR-FCFS: row-buffer hits first, then oldest-first, with an age cap so
  conflicting requests cannot starve behind an endless hit stream;
* all-bank refresh per rank every tREFI, taking tRFC.

Performance notes: requests are bucketed per (rank, bank) incrementally,
and the best-candidate computation is memoised against a queue-state
version counter — the simulator polls channels far more often than their
state changes.

Two selectors pick the next command, with identical results.  The
reference :meth:`Channel._compute_best_candidate` rebuilds every
candidate at the current clock; it runs under ``REPRO_FASTPATH=0`` and
is the oracle the differential tests compare against.  The fast
:meth:`Channel._compute_best_candidate_fast` (see
``docs/ARCHITECTURE.md``) caches each bucket's candidate *unclamped*
(computed at ``now = 0``) and invalidates per (rank, bank) bucket on
enqueue/issue instead of rescanning every bucket, relying on two
structural invariants of the timing model:

* every ``earliest_*`` method is ``max(now, state)`` where *state* only
  changes when a command executes — so a candidate computed at ``now=0``
  is valid at any clock once re-clamped with ``max(clock, time)``;
* ranks do not couple outside the shared command bus (handled by the
  channel's one-command-per-cycle rule), so an issued command can only
  perturb candidates in its own rank.

Both selectors build candidates as plain ``(time, command_class,
arrival, request, rank_index, bank_index)`` tuples — the fast one
builds one per bucket-cache miss, and a tuple literal builds several
times faster than a dataclass — and order them by the
``(time, command_class, arrival)`` prefix.

Event-horizon skipping rides on the same version counter: when the best
candidate cannot issue before cycle ``H``, any ``advance(until < H)`` at
an unchanged version is a pure clock bump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import fastpath
from repro.dram.config import DramOrganization, DramTiming
from repro.dram.rank import Rank
from repro.dram.request import DramRequest

#: Candidate command classes, in tie-break priority order.
_CLASS_REFRESH = 0
_CLASS_COLUMN = 1
_CLASS_ACTIVATE = 2
_CLASS_PRECHARGE = 3


@dataclass
class ChannelStats:
    """Per-channel command and latency accounting."""

    commands: Dict[str, int] = field(default_factory=dict)
    completed_reads: int = 0
    completed_writes: int = 0
    read_latency_sum: float = 0.0
    queue_latency_sum: float = 0.0

    @property
    def mean_read_latency(self) -> float:
        """Mean arrival-to-data read latency in memory cycles."""
        if self.completed_reads == 0:
            return 0.0
        return self.read_latency_sum / self.completed_reads


class Channel:
    """One DRAM channel: ranks, request queues and the FR-FCFS scheduler."""

    def __init__(
        self,
        timing: DramTiming,
        organization: DramOrganization,
        write_buffer_entries: int = 64,
        write_drain_high: int = 48,
        write_drain_low: int = 16,
        starvation_cap: float = 2000.0,
        log_commands: bool = False,
        page_policy: str = "open",
    ) -> None:
        if not 0 < write_drain_low < write_drain_high <= write_buffer_entries:
            raise ValueError("invalid write drain watermarks")
        if page_policy not in ("open", "closed"):
            raise ValueError("page_policy must be 'open' or 'closed'")
        self._t = timing
        self._org = organization
        self.ranks = [Rank(timing, organization) for _ in range(organization.ranks_per_channel)]
        self._write_buffer_entries = write_buffer_entries
        self._drain_high = write_drain_high
        self._drain_low = write_drain_low
        self._starvation_cap = starvation_cap
        #: "open" keeps rows open for future hits (FR-FCFS default);
        #: "closed" auto-precharges after a column command unless another
        #: queued request hits the same row.
        self._page_policy = page_policy
        self._n_reads = 0
        self._n_writes = 0
        #: (rank, flat bank) -> FIFO request lists, maintained incrementally
        self._read_by_bank: Dict[Tuple[int, int], List[DramRequest]] = {}
        self._write_by_bank: Dict[Tuple[int, int], List[DramRequest]] = {}
        #: byte address -> pending write count (for read forwarding)
        self._write_addresses: Dict[int, int] = {}
        self._drain_mode = False
        self.clock: float = 0.0
        self._last_command_cycle: float = -1.0
        self._version = 0  #: bumped on any scheduling-relevant change
        self._cached_candidate: Tuple[int, Optional[tuple]] = (-1, None)
        self._fastpath = fastpath.enabled()
        #: (rank, flat bank) -> (unclamped candidate, starved flag it was
        #: computed under, head arrival cycle) — one cache per direction,
        #: keyed by the same tuples as the queue dicts so the compute
        #: loop never builds keys.
        self._bucket_cache_read: Dict[Tuple[int, int], Tuple[tuple, bool, float]] = {}
        self._bucket_cache_write: Dict[Tuple[int, int], Tuple[tuple, bool, float]] = {}
        #: (rank, command class) -> bucket keys cached under that class,
        #: so class-wide invalidation pops a set instead of scanning both
        #: caches.  Conservatively stale: keys stay after an entry is
        #: dropped or replaced, so a class pop may invalidate unrelated
        #: fresh entries — that only forces a recompute, never a stale
        #: candidate.
        self._class_keys: Dict[Tuple[int, int], set] = {}
        #: per-rank unclamped earliest-refresh cycle (fast path).  Every
        #: input to ``Rank.earliest_refresh`` is rank/bank state that
        #: only moves when a command issues on that rank, so the value
        #: is cached until :meth:`_issue` touches the rank and re-clamped
        #: with ``max(clock, value)`` on use.
        self._refresh_unclamped: List[Optional[float]] = [None] * len(self.ranks)
        #: per-rank ``next_refresh_due + t_refi`` (the refresh-debt
        #: preempt threshold); only a REF command moves it.
        self._refresh_debt: List[Optional[float]] = [None] * len(self.ranks)
        self._skip_version = -1  #: version the event horizon was computed at
        self._skip_until = 0.0  #: no command can issue before this cycle
        self.perf = fastpath.SchedulerCounters()
        self.stats = ChannelStats()
        #: Optional (cycle, command, rank, bank, request_id) trace for
        #: timing-invariant verification in tests.
        self.command_log: Optional[List[Tuple[float, str, int, int, Optional[int]]]] = (
            [] if log_commands else None
        )
        #: Optional event tracer; ``MainMemory`` installs one when the
        #: run is observed so sampled requests get per-command instants.
        self.tracer = None

    def _log(self, cycle: float, command: str, rank: int, bank: int,
             request: Optional[DramRequest]) -> None:
        if self.command_log is not None:
            self.command_log.append(
                (cycle, command, rank, bank,
                 request.request_id if request is not None else None)
            )

    # ------------------------------------------------------------------
    # Queue interface
    # ------------------------------------------------------------------

    @property
    def pending_reads(self) -> int:
        return self._n_reads

    @property
    def pending_writes(self) -> int:
        return self._n_writes

    def _bank_key(self, request: DramRequest) -> Tuple[int, int]:
        decoded = request.decoded
        return (
            decoded.rank,
            decoded.bank_group * self._org.banks_per_group + decoded.bank,
        )

    def enqueue(self, request: DramRequest) -> None:
        """Add a request to the channel queues."""
        key = self._bank_key(request)
        # The appended request can change its bucket's candidate (e.g.
        # it hits the open row where nothing did); other buckets keep
        # their cached candidates.
        if request.is_write:
            # Overflow beyond the nominal capacity is tolerated (the
            # drain-mode watermark sits below capacity and kicks in
            # first).
            self._write_by_bank.setdefault(key, []).append(request)
            self._n_writes += 1
            address = request.byte_address
            self._write_addresses[address] = self._write_addresses.get(address, 0) + 1
            self._bucket_cache_write.pop(key, None)
        else:
            self._read_by_bank.setdefault(key, []).append(request)
            self._n_reads += 1
            self._bucket_cache_read.pop(key, None)
        self._version += 1

    def find_pending_write(self, byte_address: int) -> bool:
        """True when a write to *byte_address* is buffered (forwarding)."""
        return self._write_addresses.get(byte_address, 0) > 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def advance(self, until: float) -> List[DramRequest]:
        """Issue commands up to *until*; return newly completed requests.

        Completed requests carry ``completion_cycle`` (which may exceed
        *until* — the data transfer finishes on the bus after the column
        command issues; callers deliver the completion at that time).
        """
        if (
            self._fastpath
            and self._skip_version == self._version
            and until < self._skip_until
        ):
            # Nothing enqueued or issued since the horizon was computed
            # and the horizon is still ahead: pure clock bump.
            self.perf.horizon_skips += 1
            if until > self.clock:
                self.clock = until
            return []
        self.perf.advances += 1
        completed: List[DramRequest] = []
        drain_low = self._drain_low
        drain_high = self._drain_high
        while True:
            # _update_drain_mode and _best_candidate inlined: this loop
            # body runs once per issued command and the two calls would
            # dominate it.
            n_writes = self._n_writes
            if self._drain_mode:
                if n_writes <= drain_low:
                    self._drain_mode = False
                    self._version += 1
            elif n_writes >= drain_high:
                self._drain_mode = True
                self._version += 1
            version = self._version
            cached_version, candidate = self._cached_candidate
            if cached_version != version:
                candidate = self._compute_best_candidate()
                self._cached_candidate = (version, candidate)
            if candidate is None:
                self._skip_version = self._version
                self._skip_until = float("inf")
                if until > self.clock:
                    self.clock = until
                break
            cand_time = candidate[0]
            issue_at = max(cand_time, self._last_command_cycle + 1.0, self.clock)
            if issue_at > until:
                # The horizon is clock-independent (the clock only ever
                # catches up to it), so it stays valid until the version
                # changes.
                self._skip_version = self._version
                self._skip_until = max(
                    cand_time, self._last_command_cycle + 1.0
                )
                if until > self.clock:
                    self.clock = until
                break
            self._issue(candidate, issue_at, completed)
        return completed

    def next_event_cycle(self) -> Optional[float]:
        """Earliest cycle at which the next command could issue.

        Returns ``None`` when no requests are queued — pending refreshes
        alone do not wake the simulator; they catch up lazily inside the
        next :meth:`advance` call.
        """
        if not self._n_reads and not self._n_writes:
            return None
        self._update_drain_mode()
        candidate = self._best_candidate()
        if candidate is None:
            return None
        return max(candidate[0], self._last_command_cycle + 1.0, self.clock)

    def flush_writes(self) -> None:
        """Force drain mode regardless of watermarks (end of simulation)."""
        if self._n_writes and not self._drain_mode:
            self._drain_mode = True
            self._version += 1

    # ------------------------------------------------------------------

    def _update_drain_mode(self) -> None:
        if self._drain_mode:
            if self._n_writes <= self._drain_low:
                self._drain_mode = False
                self._version += 1
        elif self._n_writes >= self._drain_high:
            self._drain_mode = True
            self._version += 1

    def _active_buckets(self) -> Dict[Tuple[int, int], List[DramRequest]]:
        if self._drain_mode:
            return self._write_by_bank
        if self._n_reads:
            return self._read_by_bank
        # Idle write drain: no reads pending, trickle writes out.
        return self._write_by_bank

    def _best_candidate(self) -> Optional[tuple]:
        version, cached = self._cached_candidate
        if version == self._version:
            return cached
        best = self._compute_best_candidate()
        self._cached_candidate = (self._version, best)
        return best

    def _compute_best_candidate(self) -> Optional[tuple]:
        """Best candidate at the clock; the fast selector when enabled.

        The body is the reference selector (``REPRO_FASTPATH=0``): every
        candidate is rebuilt at the clock and compared on its
        ``(time, class, arrival)`` prefix only — on a full-prefix tie a
        whole-tuple comparison would go on to compare the requests.
        """
        if self._fastpath:
            return self._compute_best_candidate_fast()
        best: Optional[tuple] = None
        for rank_index, rank in enumerate(self.ranks):
            candidate = (
                rank.earliest_refresh(self.clock), _CLASS_REFRESH,
                float("-inf"), None, rank_index, -1,
            )
            if self.clock > rank.next_refresh_due + self._t.t_refi:
                # Refresh debt of a full interval: refresh preempts all
                # request scheduling until the rank catches up.
                return candidate
            if best is None or candidate[:3] < best[:3]:
                best = candidate
        for (rank_index, bank_index), requests in self._active_buckets().items():
            if not requests:
                continue
            candidate = self._bank_candidate_at(
                self.clock, rank_index, bank_index, requests
            )
            if best is None or candidate[:3] < best[:3]:
                best = candidate
        return best

    def _compute_best_candidate_fast(self) -> Optional[tuple]:
        """Cached variant of :meth:`_compute_best_candidate`.

        Selection is provably identical: candidate sort keys form a total
        order (refresh candidates carry class 0 and ``-inf`` arrival, so
        no bank candidate ever ties one), which makes the evaluation
        order irrelevant, and a cached bucket candidate re-clamped with
        ``max(clock, time)`` equals a fresh computation at this clock.
        """
        self.perf.computes += 1
        clock = self.clock
        debt = self._refresh_debt
        for rank_index, rank in enumerate(self.ranks):
            threshold = debt[rank_index]
            if threshold is None:
                threshold = rank.next_refresh_due + self._t.t_refi
                debt[rank_index] = threshold
            if clock > threshold:
                # Refresh debt of a full interval: refresh preempts all
                # request scheduling until the rank catches up.
                return (
                    rank.earliest_refresh(clock), _CLASS_REFRESH,
                    float("-inf"), None, rank_index, -1,
                )
        buckets = self._active_buckets()
        if buckets is self._write_by_bank:
            cache = self._bucket_cache_write
        else:
            cache = self._bucket_cache_read
        cap = self._starvation_cap
        cache_get = cache.get
        class_keys = self._class_keys
        hits = misses = 0
        best: Optional[tuple] = None
        best_time = best_class = best_arrival = None
        for key, requests in buckets.items():
            if not requests:
                continue
            # The starvation flag is the only clock-dependent input to a
            # bucket's candidate; a cached entry is reusable iff the
            # bucket was not invalidated and the flag is unchanged.
            # requests[0] is stable while the entry lives (any list
            # mutation invalidates the bucket), so its cached arrival
            # stands in for the list access.
            entry = cache_get(key)
            if entry is not None and entry[1] == ((clock - entry[2]) > cap):
                hits += 1
                candidate = entry[0]
            else:
                misses += 1
                arrival = requests[0].arrival_cycle
                starved = (clock - arrival) > cap
                candidate = self._bank_candidate_fast(
                    key[0], key[1], requests, starved
                )
                cache[key] = (candidate, starved, arrival)
                class_key = (key[0], candidate[1])
                members = class_keys.get(class_key)
                if members is None:
                    class_keys[class_key] = {key}
                else:
                    members.add(key)
            # candidate fields by index (0: time, 1: class, 2: arrival).
            time = candidate[0]
            if time < clock:
                time = clock
            if best is not None:
                if time > best_time:
                    continue
                if time == best_time:
                    command_class = candidate[1]
                    if command_class > best_class or (
                        command_class == best_class
                        and candidate[2] >= best_arrival
                    ):
                        continue
            best = candidate
            best_time = time
            best_class = candidate[1]
            best_arrival = candidate[2]
        counters = self.perf.bucket
        counters.hits += hits
        counters.misses += misses
        # Refresh candidates last, from the per-rank cache: the full
        # ``earliest_refresh`` scans every bank, but all of its inputs
        # are rank state, so the unclamped value survives until the
        # next command issues on the rank.
        # The scan never returns less than the rank's due/blocked floor,
        # so a floor past the best bank candidate skips it (and leaves
        # the entry empty).
        refresh_cache = self._refresh_unclamped
        for rank_index, rank in enumerate(self.ranks):
            time = refresh_cache[rank_index]
            if time is None:
                if best is not None:
                    floor = rank.next_refresh_due
                    if rank.refresh_blocked_until > floor:
                        floor = rank.refresh_blocked_until
                    if floor > best_time:
                        continue
                time = rank.earliest_refresh(0.0)
                refresh_cache[rank_index] = time
            if time < clock:
                time = clock
            if best is not None and time > best_time:
                continue
            # Refresh (class 0) beats any bank candidate at equal time;
            # an earlier rank's refresh keeps an exact tie.
            if best is None or time < best_time or (
                time == best_time and best_class != _CLASS_REFRESH
            ):
                best = (
                    time, _CLASS_REFRESH, float("-inf"), None, rank_index, -1
                )
                best_time = time
                best_class = _CLASS_REFRESH
                best_arrival = float("-inf")
        return best

    def _bank_candidate_fast(
        self,
        rank_index: int,
        bank_index: int,
        requests: List[DramRequest],
        starved: bool,
    ) -> tuple:
        """`_bank_candidate_at(0.0, ...)` with the timing math inlined
        and the clock-dependent starvation flag passed in.

        The bank/rank ``earliest_*`` methods are ``max(now, ...)`` chains
        over non-negative state (initialised to 0.0, advanced by command
        execution), so at ``now = 0.0`` the clamp is free and the method
        stack collapses into attribute reads and compares.  Equivalence
        with the reference :meth:`_bank_candidate_at` is pinned by the
        golden fastpath-on/off runs and the channel-level differential
        in ``tests/test_fastpath.py``.
        """
        rank = self.ranks[rank_index]
        bank = rank.banks[bank_index]
        target = requests[0]
        open_row = bank.open_row
        if open_row is not None and not starved:
            for request in requests:
                if request.decoded.row == open_row:
                    target = request
                    break

        decoded = target.decoded
        if open_row == decoded.row:
            # RD/WR: bank tCCD gate plus rank-level column constraints.
            t = self._t
            is_write = target.is_write
            time = rank.refresh_blocked_until
            v = bank.next_column
            if v > time:
                time = v
            data_delay = t.t_cwd if is_write else t.t_cas
            t_ccd_s = t.t_ccd_s
            t_ccd_l = t.t_ccd_l
            bank_group = decoded.bank_group
            last_col_any = rank._last_col_any
            last_col_by_group = rank._last_col_by_group
            turnaround = rank._next_write_ok if is_write else rank._next_read_ok
            bus_free = rank._bus_free
            for subrank in target.subrank_mask:
                v = last_col_any[subrank] + t_ccd_s
                if v > time:
                    time = v
                v = last_col_by_group[subrank][bank_group] + t_ccd_l
                if v > time:
                    time = v
                v = turnaround[subrank]
                if v > time:
                    time = v
                v = bus_free[subrank] - data_delay
                if v > time:
                    time = v
            command_class = _CLASS_COLUMN
        elif open_row is None:
            # ACT: bank tRC gate plus rank tRRD/tFAW windows.
            t = self._t
            time = bank.next_activate
            v = rank.refresh_blocked_until
            if v > time:
                time = v
            v = rank._last_act_any + t.t_rrd_s
            if v > time:
                time = v
            v = rank._last_act_by_group[decoded.bank_group] + t.t_rrd_l
            if v > time:
                time = v
            history = rank._act_history
            if len(history) == 4:
                v = history[0] + t.t_faw
                if v > time:
                    time = v
            command_class = _CLASS_ACTIVATE
        else:
            time = bank.next_precharge
            command_class = _CLASS_PRECHARGE
        return (
            time, command_class, target.arrival_cycle,
            target, rank_index, bank_index,
        )

    def _bank_candidate_at(
        self,
        now: float,
        rank_index: int,
        bank_index: int,
        requests: List[DramRequest],
    ) -> tuple:
        rank = self.ranks[rank_index]
        bank = rank.banks[bank_index]
        oldest = requests[0]  # FIFO buckets: index 0 is the oldest
        starved = (now - oldest.arrival_cycle) > self._starvation_cap

        target = oldest
        if not starved and bank.open_row is not None:
            open_row = bank.open_row
            for request in requests:
                if request.decoded.row == open_row:
                    target = request
                    break

        decoded = target.decoded
        if bank.open_row == decoded.row:
            time = bank.earliest_column(now, decoded.row)
            rank_time = rank.earliest_column(
                now,
                decoded.bank_group,
                target.is_write,
                target.subrank_mask,
                target.data_beats,
            )
            if rank_time > time:
                time = rank_time
            command_class = _CLASS_COLUMN
        elif bank.open_row is None:
            time = max(
                bank.earliest_activate(now),
                rank.earliest_activate(now, decoded.bank_group),
            )
            command_class = _CLASS_ACTIVATE
        else:
            time = bank.earliest_precharge(now)
            command_class = _CLASS_PRECHARGE
        return (
            time, command_class, target.arrival_cycle,
            target, rank_index, bank_index,
        )

    def _issue(
        self, candidate: tuple, cycle: float, completed: List[DramRequest]
    ) -> None:
        self._last_command_cycle = cycle
        self.clock = cycle
        self._version += 1
        __, command_class, __, request, rank_index, bank_index = candidate
        # Any command (incl. the auto-precharge rider) moves rank/bank
        # state that feeds the rank's earliest-refresh value.
        self._refresh_unclamped[rank_index] = None
        rank = self.ranks[rank_index]
        stats = self.stats
        commands = stats.commands
        log = self.command_log
        tracer = self.tracer
        if command_class == _CLASS_REFRESH:
            rank.do_refresh(cycle)
            self._refresh_debt[rank_index] = None
            # Refresh force-closes every bank and raises the rank-wide
            # refresh block: nothing cached for this rank survives.
            self._invalidate_rank(rank_index)
            commands["REF"] = commands.get("REF", 0) + 1
            if log is not None:
                self._log(cycle, "REF", rank_index, -1, None)
            return

        assert request is not None
        bank = rank.banks[bank_index]
        decoded = request.decoded
        if command_class == _CLASS_PRECHARGE:
            if request.row_outcome is None:
                request.row_outcome = "miss"
                bank.stats.row_misses += 1
            bank.do_precharge(cycle)
            # PRE only mutates its own bank (open_row, next_activate).
            self._invalidate_bank(rank_index, bank_index)
            commands["PRE"] = commands.get("PRE", 0) + 1
            if log is not None:
                self._log(cycle, "PRE", rank_index, bank_index, request)
            if tracer is not None and request.trace_id is not None:
                tracer.instant(
                    request.trace_id, "cmd_PRE", cycle,
                    rank=rank_index, bank=bank_index,
                )
            return
        if command_class == _CLASS_ACTIVATE:
            if request.row_outcome is None:
                request.row_outcome = "empty"
                bank.stats.row_empty += 1
            rank.note_activate(cycle, decoded.bank_group)
            bank.do_activate(cycle, decoded.row)
            # ACT mutates its own bank plus the rank's tRRD/tFAW state,
            # which feeds only other ACTIVATE-class candidates.
            self._invalidate_bank(rank_index, bank_index)
            self._invalidate_class(rank_index, _CLASS_ACTIVATE)
            commands["ACT"] = commands.get("ACT", 0) + 1
            if log is not None:
                self._log(cycle, "ACT", rank_index, bank_index, request)
            if tracer is not None and request.trace_id is not None:
                tracer.instant(
                    request.trace_id, "cmd_ACT", cycle,
                    rank=rank_index, bank=bank_index, row=decoded.row,
                )
            return

        # Column command: the request's data transfer is now scheduled.
        if request.issue_cycle is None:
            request.issue_cycle = cycle
        if request.row_outcome is None:
            request.row_outcome = "hit"
            bank.stats.row_hits += 1
        data_end = rank.note_column(
            cycle,
            decoded.bank_group,
            request.is_write,
            request.subrank_mask,
            request.data_beats,
        )
        bank.do_column(cycle, request.is_write, request.data_beats)
        if log is not None:
            self._log(cycle, "WR" if request.is_write else "RD",
                      rank_index, bank_index, request)
        if tracer is not None and request.trace_id is not None:
            tracer.span(
                request.trace_id,
                "cmd_WR" if request.is_write else "cmd_RD",
                cycle, data_end,
                rank=rank_index, bank=bank_index,
                row_outcome=request.row_outcome,
                subranks=list(request.subrank_mask),
            )
        request.completion_cycle = data_end
        key = (rank_index, bank_index)
        if request.is_write:
            self._write_by_bank[key].remove(request)
            self._n_writes -= 1
            address = request.byte_address
            remaining = self._write_addresses.get(address, 0) - 1
            if remaining > 0:
                self._write_addresses[address] = remaining
            else:
                self._write_addresses.pop(address, None)
            commands["WR"] = commands.get("WR", 0) + 1
            stats.completed_writes += 1
        else:
            self._read_by_bank[key].remove(request)
            self._n_reads -= 1
            commands["RD"] = commands.get("RD", 0) + 1
            stats.completed_reads += 1
            stats.read_latency_sum += request.total_latency
            stats.queue_latency_sum += request.queue_latency
        # RD/WR mutates its own bank (next_precharge, bucket contents)
        # plus the rank's tCCD/bus/turnaround state, which feeds only
        # other COLUMN-class candidates.
        self._invalidate_bank(rank_index, bank_index)
        self._invalidate_class(rank_index, _CLASS_COLUMN)
        completed.append(request)
        if self._page_policy == "closed":
            self._maybe_auto_precharge(rank_index, bank_index, bank, decoded.row)

    def _maybe_auto_precharge(
        self, rank_index: int, bank_index: int, bank, row: int
    ) -> None:
        """Closed-page policy: close the row unless a queued request
        still wants it.

        Modelled as the auto-precharge flavour of the column command
        (RDA/WRA): it consumes no command-bus slot and takes effect at
        the earliest legal precharge point.
        """
        key = (rank_index, bank_index)
        for bucket in (self._read_by_bank, self._write_by_bank):
            for request in bucket.get(key, ()):  # pending same-row work?
                if request.decoded.row == row:
                    return
        bank.do_precharge(bank.earliest_precharge(self.clock))
        # Not counted as a PRE command: RDA/WRA rides the column command.
        # Cache-wise it is covered by the column command's own-bank
        # invalidation (no candidate is recomputed between the two).

    # ------------------------------------------------------------------
    # Bucket-cache invalidation (fast path)
    # ------------------------------------------------------------------

    def _invalidate_bank(self, rank_index: int, bank_index: int) -> None:
        key = (rank_index, bank_index)
        self._bucket_cache_read.pop(key, None)
        self._bucket_cache_write.pop(key, None)

    def _invalidate_rank(self, rank_index: int) -> None:
        class_keys = self._class_keys
        read_pop = self._bucket_cache_read.pop
        write_pop = self._bucket_cache_write.pop
        for command_class in (_CLASS_COLUMN, _CLASS_ACTIVATE, _CLASS_PRECHARGE):
            keys = class_keys.pop((rank_index, command_class), None)
            if keys:
                for key in keys:
                    read_pop(key, None)
                    write_pop(key, None)

    def _invalidate_class(self, rank_index: int, command_class: int) -> None:
        """Drop cached candidates of *command_class* within a rank.

        Rank-level timing state is partitioned by command class (ACT:
        tRRD/tFAW; RD/WR: tCCD/bus/turnaround), so an issued command
        only perturbs same-class candidates in other banks of its rank.
        The ``_class_keys`` index is conservatively stale, so this may
        also drop entries that changed class since they were indexed —
        harmless over-invalidation.
        """
        keys = self._class_keys.pop((rank_index, command_class), None)
        if keys:
            read_pop = self._bucket_cache_read.pop
            write_pop = self._bucket_cache_write.pop
            for key in keys:
                read_pop(key, None)
                write_pop(key, None)
