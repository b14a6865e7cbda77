"""Tests for the workload bank: columnar encoding, replay, sharing.

The bank's whole contract is "indistinguishable from generation, only
cheaper": a round-tripped column blob must re-yield exactly the records
that went in (property-tested over arbitrary traces), and a replayed
:class:`WorkloadInstance` must match a generated one record for record
and line for line.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.cpu.trace import MemOp, TraceRecord
from repro.workloads import bank
from repro.workloads.bank import (
    BANK_SCHEMA_VERSION,
    WorkloadBank,
    column_views,
    decode_header,
    encode_columns,
    records_to_columns,
    replay_records,
)
from repro.workloads.tracegen import build_workload, generate_workload

WORKLOAD = dict(cores=2, records_per_core=120, seed=11, footprint_scale=1.0)


@pytest.fixture(autouse=True)
def _no_leaked_bank():
    """Every test starts and ends without a process-global bank."""
    bank.deactivate()
    yield
    bank.deactivate()


def _drain(instance):
    return [list(trace) for trace in instance.traces]


# ----------------------------------------------------------------------
# Columnar encode/decode
# ----------------------------------------------------------------------

_records = st.lists(
    st.builds(
        TraceRecord,
        gap=st.integers(min_value=0, max_value=2**32 - 1),
        op=st.sampled_from([MemOp.LOAD, MemOp.STORE]),
        address=st.integers(min_value=0, max_value=2**64 - 1),
    ),
    max_size=64,
)


class TestColumnarRoundTrip:
    @given(st.lists(_records, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_round_trips(self, cores):
        header = {"bank_schema": BANK_SCHEMA_VERSION, "name": "prop"}
        blob = encode_columns(
            header, [records_to_columns(core) for core in cores]
        )
        decoded = decode_header(blob)
        assert decoded["name"] == "prop"
        views = column_views(blob, decoded)
        assert len(views) == len(cores)
        for view, original in zip(views, cores):
            assert list(replay_records(*view)) == original

    def test_mismatched_column_lengths_rejected(self):
        addresses, gaps, ops = records_to_columns(
            [TraceRecord(gap=0, op=MemOp.LOAD, address=1)]
        )
        with pytest.raises(ValueError, match="lengths disagree"):
            encode_columns({}, [(addresses, gaps, ops + b"\x00")])

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            decode_header(b"NOTABANK" + b"\x00" * 32)

    def test_truncated_blob_rejected(self):
        blob = encode_columns(
            {"bank_schema": BANK_SCHEMA_VERSION},
            [records_to_columns(
                [TraceRecord(gap=1, op=MemOp.STORE, address=2)] * 8
            )],
        )
        with pytest.raises(ValueError, match="truncated"):
            decode_header(blob[:-16])

    def test_wrong_schema_rejected(self):
        blob = encode_columns({"bank_schema": BANK_SCHEMA_VERSION + 1}, [])
        with pytest.raises(ValueError, match="schema"):
            decode_header(blob)


# ----------------------------------------------------------------------
# Bank replay vs direct generation
# ----------------------------------------------------------------------

class TestBankReplay:
    @pytest.mark.parametrize("name", ["STREAM", "mcf", "mix1"])
    def test_replay_matches_generation(self, tmp_path, name):
        generated = generate_workload(name, **WORKLOAD)
        replayed = WorkloadBank(tmp_path).workload(name=name, **WORKLOAD)
        assert replayed.name == generated.name
        assert replayed.region_bases == generated.region_bases
        assert replayed.region_sizes == generated.region_sizes
        assert [p.name for p in replayed.profiles] == [
            p.name for p in generated.profiles
        ]
        assert _drain(replayed) == _drain(generated)

    def test_replayed_data_model_matches(self, tmp_path):
        generated = generate_workload("mix1", **WORKLOAD)
        replayed = WorkloadBank(tmp_path).workload(name="mix1", **WORKLOAD)
        lines = [base // 64 + offset
                 for base in generated.region_bases for offset in (0, 1, 7)]
        for line in lines:
            assert (replayed.data_model.line_data(line, 0)
                    == generated.data_model.line_data(line, 0))
            assert (replayed.data_model.line_class(line, 3)
                    == generated.data_model.line_class(line, 3))

    def test_materialize_is_idempotent(self, tmp_path):
        store = WorkloadBank(tmp_path)
        key = store.materialize(name="STREAM", **WORKLOAD)
        assert store.materialize(name="STREAM", **WORKLOAD) == key
        assert store.stats.built == 1
        assert len(list(tmp_path.glob("*.bank"))) == 1

    def test_distinct_parameters_distinct_entries(self, tmp_path):
        store = WorkloadBank(tmp_path)
        base = store.key(name="STREAM", **WORKLOAD)
        changed = dict(WORKLOAD, seed=WORKLOAD["seed"] + 1)
        assert store.key(name="STREAM", **changed) != base
        assert store.key(name="mcf", **WORKLOAD) != base

    def test_attach_is_cached_per_key(self, tmp_path):
        store = WorkloadBank(tmp_path)
        store.workload(name="STREAM", **WORKLOAD)
        store.workload(name="STREAM", **WORKLOAD)
        assert store.stats.attached == 1
        assert store.stats.replayed == 2


# ----------------------------------------------------------------------
# Process-global installation
# ----------------------------------------------------------------------

class TestInstall:
    def test_build_workload_consults_active_bank(self, tmp_path):
        direct = _drain(build_workload("STREAM", **WORKLOAD))
        installed = bank.install(tmp_path)
        via_bank = _drain(build_workload("STREAM", **WORKLOAD))
        assert installed.stats.replayed == 1
        assert via_bank == direct

    def test_deactivate_restores_generation(self, tmp_path):
        installed = bank.install(tmp_path)
        build_workload("STREAM", **WORKLOAD)
        bank.deactivate()
        assert bank.active_bank() is None
        build_workload("STREAM", **WORKLOAD)
        assert installed.stats.replayed == 1  # unchanged after deactivate

    def test_shared_memos_survive_across_instances(self, tmp_path):
        # A warm worker installs a bank and switches memo sharing on.
        bank.install(tmp_path)
        fastpath.share_memos(True)
        try:
            first = build_workload("STREAM", **WORKLOAD)
            line = first.region_bases[0] // 64
            data = first.data_model.line_data(line, 0)
            second = build_workload("STREAM", **WORKLOAD)
        finally:
            fastpath.share_memos(False)
        # The second instance's model starts with the first one's memo:
        # same object identity proves the cache was shared, not re-derived.
        assert second.data_model.line_data(line, 0) is data
