"""Tests for the pure-memo registry (``repro.fastpath.memo``).

Warm sweep workers switch sharing on (``fastpath.share_memos``), so the
jobs of one workload reuse each other's compression results, generated
line contents and classes, keystreams, BLEM images and decodes, address
decodes and sub-rank placements.  Sharing must be invisible: results
equal a private-memo run, every read is still verified, and with the
switch off every owner keeps its own memo.
"""

import hashlib
import json

import pytest

from repro import fastpath
from repro.compression import CompressionEngine
from repro.core import AttacheController
from repro.core.blem import BlemConfig, BlemEngine
from repro.core.copr import CoprConfig
from repro.dram import DramOrganization, MainMemory, SystemConfig
from repro.dram.config import AddressMapper
from repro.obs import ObsConfig
from repro.scramble import DataScrambler
from repro.sim.runner import ExperimentScale, build_system, run_benchmark
from repro.workloads import DataModel, DataProfile
from repro.workloads.tracegen import build_workload

SCALE = ExperimentScale(name="memo-test", factor=64, cores=2,
                        records_per_core=80, warmup_per_core=20)

#: Two Attaché jobs that differ only in PaPR size, then one job of
#: every other system, all on one (benchmark, seed).
JOBS = [
    ("attache", {"copr_config": CoprConfig(papr_entries=64)}),
    ("attache", {"copr_config": CoprConfig(papr_entries=4096)}),
    ("baseline", {}),
    ("metadata_cache", {}),
    ("ideal", {}),
]


@pytest.fixture
def shared():
    fastpath.share_memos(True)
    try:
        yield
    finally:
        fastpath.share_memos(False)


def _digest(result):
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _spy_blem(monkeypatch):
    """Count BlemEngine.encode_write / decode_read calls."""
    counts = {"encode_write": 0, "decode_read": 0}
    for name in counts:
        original = getattr(BlemEngine, name)

        def spy(self, *args, _original=original, _name=name):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(BlemEngine, name, spy)
    return counts


def _run_jobs(counts, blem_config, obs):
    results, per_job = [], []
    for system, parameters in JOBS:
        before = dict(counts)
        results.append(run_benchmark("mcf", system, scale=SCALE, seed=3,
                                     blem_config=blem_config, obs=obs,
                                     **parameters))
        per_job.append({name: counts[name] - before[name] for name in counts})
    return results, per_job


def _model(seed=99):
    return DataModel(DataProfile(0.5, 0.8), seed=seed)


def _attache(organization=DramOrganization(), **kwargs):
    memory = MainMemory(SystemConfig(organization=organization))
    return AttacheController(memory, _model(), **kwargs)


@pytest.mark.parametrize("blem_config", [BlemConfig(), BlemConfig(cid_bits=3)],
                         ids=["default", "small_cid"])
@pytest.mark.parametrize("obs", [None, ObsConfig(epoch_cycles=512.0,
                                                 trace=False)],
                         ids=["plain", "obs"])
def test_sharing_keeps_results_and_skips_repeat_work(monkeypatch, blem_config,
                                                     obs):
    # With obs on, the per-epoch BLEM write and collision series (read
    # collisions included) are part of the digest.
    counts = _spy_blem(monkeypatch)
    private, private_calls = _run_jobs(counts, blem_config, obs)
    fastpath.share_memos(True)
    try:
        shared, shared_calls = _run_jobs(counts, blem_config, obs)
    finally:
        fastpath.share_memos(False)

    assert [_digest(r) for r in shared] == [_digest(r) for r in private]
    assert [r.collision_rate for r in shared] == [
        r.collision_rate for r in private
    ]
    # The first Attaché job starts from empty memos; its PaPR sibling
    # finds most images and decodes already computed.
    assert shared_calls[0] == private_calls[0]
    for name in ("encode_write", "decode_read"):
        assert shared_calls[1][name] < private_calls[1][name]
    if blem_config.cid_bits == 3:
        assert any(r.collision_rate for r in shared)


def test_memo_hit_read_is_still_verified(shared, monkeypatch):
    address = 0x4000
    first, second = _attache(), _attache()
    first.read_line(address, 0.0, lambda done: None)
    counts = _spy_blem(monkeypatch)
    line = address // 64
    written = second._written_content(line)
    corrupted = bytes(byte ^ 0xFF for byte in written)
    monkeypatch.setattr(second, "_written_content", lambda line: corrupted)
    with pytest.raises(RuntimeError, match="data integrity violation"):
        second.read_line(address, 0.0, lambda done: None)
    # The image and its decode both came from the first controller.
    assert counts == {"encode_write": 0, "decode_read": 0}


def test_encode_memo_keys_on_the_primary_subrank(shared):
    # Two organizations that place some address's header in different
    # sub-ranks share one BLEM fingerprint, hence one encode memo.
    one = _attache(DramOrganization(channels=1))
    two = _attache(DramOrganization(channels=2))
    address = next(
        a for a in range(0, 1 << 20, 64)
        if one._primary_subrank(a) != two._primary_subrank(a)
    )
    content = one._data_model.line_data(address // 64)
    one._encode_and_spill(address, content)
    stored = two._encode_and_spill(address, content)
    assert stored.primary == two._primary_subrank(address)


#: (label, build an owner, its memo attributes)
MEMO_OWNERS = [
    ("compression", CompressionEngine, ("_cache",)),
    ("datagen", _model, ("_content_cache", "_flip_cache", "_class_cache")),
    ("scramble", lambda: DataScrambler(7), ("_keystreams",)),
    ("dram.decode", lambda: AddressMapper(DramOrganization()),
     ("_decode_cache",)),
    ("blem", _attache, ("_encodes", "_decodes")),
]


@pytest.mark.parametrize("label,build,attributes", MEMO_OWNERS,
                         ids=[owner[0] for owner in MEMO_OWNERS])
class TestMemoOwners:
    def test_switch_off_keeps_one_memo_per_owner(self, label, build,
                                                 attributes):
        first, second = build(), build()
        for attribute in attributes:
            assert getattr(first, attribute) is not getattr(second, attribute)

    def test_switch_on_shares_one_memo(self, shared, label, build,
                                       attributes):
        first, second = build(), build()
        for attribute in attributes:
            assert getattr(first, attribute) is getattr(second, attribute)


def test_registry_keeps_a_bounded_number_of_fingerprints_per_name(shared):
    first = fastpath.memo("test.bounded", 0)
    other = fastpath.memo("test.other", 0)
    for fingerprint in range(1, fastpath.MEMO_FINGERPRINTS):
        fastpath.memo("test.bounded", fingerprint)
    assert fastpath.memo("test.bounded", 0) is first
    # One fingerprint past the bound starts that name over, and only it.
    fastpath.memo("test.bounded", fastpath.MEMO_FINGERPRINTS)
    assert fastpath.memo("test.bounded", 0) is not first
    assert fastpath.memo("test.other", 0) is other


def test_fingerprints_separate_configurations(shared):
    default = _attache()
    small_cid = _attache(blem_config=BlemConfig(cid_bits=3))
    other_seed = _attache(scrambler_seed=1)
    assert default._encodes is not small_cid._encodes
    assert default._encodes is not other_seed._encodes
    assert AddressMapper(DramOrganization())._decode_cache is not (
        AddressMapper(DramOrganization(), column_low_bits=3)._decode_cache
    )


def test_memos_stay_off_the_reference_path(shared):
    with fastpath.overridden(False):
        controller = _attache()
    assert controller._encodes is None and controller._decodes is None


@pytest.mark.parametrize("system", ["ideal", "metadata_cache", "attache"])
def test_prewarm_generates_content_only_for_blem(system):
    pytest.importorskip("numpy")
    from repro import kernels

    if not kernels.enabled():
        pytest.skip("the vector path is off")
    from repro.kernels.timing import prewarm_timed_phase

    workload = build_workload("mcf", cores=2, records_per_core=100, seed=3,
                              footprint_scale=SCALE.footprint_scale)
    __, factory = build_system(system, SCALE)
    controller = factory(workload.data_model, workload.address_span)
    models = [model for __, ___, model in workload.data_model.regions]

    def sizes(attribute):
        return sum(len(getattr(model, attribute)) for model in models)

    content, classes = sizes("_content_cache"), sizes("_class_cache")
    prewarm_timed_phase(workload, controller, 0, 100)
    assert sizes("_class_cache") > classes
    if system == "attache":
        assert sizes("_content_cache") > content
    else:
        assert sizes("_content_cache") == content
