"""The vector data plane's contract: bit-identical to scalar, per kernel.

Mirrors the two-layer discipline of ``tests/test_fastpath.py``:

* **Differential tests** pin each columnar kernel to the scalar code it
  replaces — the splitmix64 batch generator against
  ``DeterministicRng`` draw by draw, the batch classifiers against the
  full codecs, content synthesis and class evaluation against
  ``DataModel``, the keystream matrix against ``DataScrambler``, the
  chunked-rounds LRU kernel against an insertion-ordered-dict reference,
  and trace columns against ``TraceGenerator`` for every profile.
* **Golden runs** require whole results to be exactly equal with the
  vector path on and off: ``run_functional`` payloads plus metadata
  cache end state, ``run_benchmark`` payloads per system, bank blob
  bytes, and (in a subprocess) the ``REPRO_VECTOR=0/1`` digests.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.compression.engine import CompressionEngine
from repro.core.copr import CoprConfig
from repro.core.metadata_cache import MetadataCache
from repro.fastpath.bench import result_digest
from repro.kernels.datagen import line_classes, lines_data
from repro.kernels.lru import lru_simulate
from repro.kernels.rng import VecRng
from repro.kernels.scramble import keystream_matrix
from repro.scramble.scrambler import DataScrambler
from repro.sim.functional import run_functional
from repro.sim.runner import SYSTEMS, ExperimentScale, run_benchmark
from repro.util.rng import DeterministicRng
from repro.workloads.datagen import DataModel
from repro.workloads.profiles import PROFILES, all_benchmark_names
from repro.workloads.tracegen import generate_workload

# ----------------------------------------------------------------------
# VecRng vs DeterministicRng
# ----------------------------------------------------------------------


@given(seed=st.integers(0, 2**64 - 1), count=st.integers(1, 200))
@settings(max_examples=50, deadline=None)
def test_vecrng_u64_matches_scalar(seed, count):
    scalar = DeterministicRng(seed)
    vec = VecRng(seed)
    batch = vec.u64(count)
    assert [int(v) for v in batch] == [scalar.next_u64() for _ in range(count)]
    # The handoff contract: the scalar generator can continue the stream.
    assert vec.state == scalar._state
    assert vec.scalar().next_u64() == scalar.next_u64()


@given(seed=st.integers(0, 2**64 - 1), count=st.integers(1, 100))
@settings(max_examples=30, deadline=None)
def test_vecrng_floats_and_below_match_scalar(seed, count):
    scalar = DeterministicRng(seed)
    floats = VecRng(seed).floats(count)
    assert list(floats) == [scalar.next_float() for _ in range(count)]
    for bound in (17, 200, 256, 1 << 15):
        scalar = DeterministicRng(seed)
        draws = VecRng(seed).below_exact(bound, count)
        assert [int(v) for v in draws] == [
            scalar.next_below(bound) for _ in range(count)
        ]


# ----------------------------------------------------------------------
# Batch classification vs the full codecs
# ----------------------------------------------------------------------

_WORD = st.one_of(
    st.just(0),
    st.integers(-8, 7).map(lambda v: v & 0xFFFFFFFF),
    st.integers(-128, 127).map(lambda v: v & 0xFFFFFFFF),
    st.integers(-32768, 32767).map(lambda v: v & 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
)
_LINE = st.one_of(
    st.lists(_WORD, min_size=16, max_size=16).map(
        lambda ws: b"".join(w.to_bytes(4, "little") for w in ws)
    ),
    st.binary(min_size=64, max_size=64),
    st.binary(min_size=1, max_size=8).map(lambda b: (b * 64)[:64]),
)


@given(lines=st.lists(_LINE, min_size=1, max_size=24))
@settings(max_examples=60, deadline=None)
# Words straddling the signed boundary of their base width (BDI deltas
# are fixed-width).
@example(lines=[
    struct.pack("<8Q", *([(1 << 63) - 100] * 7 + [1 << 63])),
    struct.pack("<16I", *([0x7FFFFFF0] * 8 + [0x80000010] * 8)),
    struct.pack("<32H", *([0x7FF0] * 16 + [0x8010] * 16)),
])
def test_is_compressible_many_matches_scalar(lines):
    matrix = np.frombuffer(b"".join(lines), dtype=np.uint8).reshape(-1, 64)
    engine = CompressionEngine()
    with kernels.overridden(True):
        fast = list(CompressionEngine().is_compressible_many(matrix))
    with kernels.overridden(False):
        slow = list(CompressionEngine().is_compressible_many(matrix))
    assert fast == slow
    assert fast == [engine.is_compressible(line) for line in lines]


# ----------------------------------------------------------------------
# Batch content synthesis / class evaluation vs DataModel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_datagen_matches_scalar_model(profile):
    model = DataModel(PROFILES[profile].data, seed=2018)
    rng = np.random.default_rng(hash(profile) & 0xFFFF)
    lines = rng.integers(0, 1 << 20, 160, dtype=np.uint64)
    versions = rng.integers(0, 5, 160, dtype=np.uint64)
    classes = line_classes(model, lines, versions)
    contents = lines_data(model, lines, versions)
    for index in range(lines.shape[0]):
        line, version = int(lines[index]), int(versions[index])
        assert bool(classes[index]) == model.line_class(line, version)
        assert contents[index].tobytes() == model.line_data(line, version)


@given(
    lines=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=40),
    versions_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_line_classes_differential(lines, versions_seed):
    model = DataModel(PROFILES["mcf"].data, seed=7)
    rng = np.random.default_rng(versions_seed)
    arr = np.array(lines, dtype=np.uint64)
    versions = rng.integers(0, 8, arr.shape[0], dtype=np.uint64)
    classes = line_classes(model, arr, versions)
    for index in range(arr.shape[0]):
        assert bool(classes[index]) == model.line_class(
            int(arr[index]), int(versions[index])
        )


def test_measure_compressibility_matches_scalar():
    lines = list(range(0, 3000, 11))
    with kernels.overridden(False):
        slow = DataModel(
            PROFILES["soplex"].data, seed=3
        ).measure_compressibility(lines, at_version=2)
    with kernels.overridden(True):
        fast = DataModel(
            PROFILES["soplex"].data, seed=3
        ).measure_compressibility(lines, at_version=2)
    assert fast == slow


# ----------------------------------------------------------------------
# Keystream matrix vs DataScrambler
# ----------------------------------------------------------------------


@given(
    seed=st.integers(0, 2**64 - 1),
    addresses=st.lists(
        st.integers(0, 2**48 - 1).map(lambda a: a & ~0x3F),
        min_size=1, max_size=32,
    ),
)
@settings(max_examples=40, deadline=None)
def test_keystream_matrix_matches_scalar(seed, addresses):
    scrambler = DataScrambler(seed)
    matrix = keystream_matrix(seed, np.array(addresses, dtype=np.uint64))
    for row, address in zip(matrix, addresses):
        assert row.tobytes() == scrambler.keystream(address, 64)


def test_scramble_lines_differential():
    rng = np.random.default_rng(11)
    addresses = (rng.integers(0, 1 << 40, 200, dtype=np.uint64) >> 6) << 6
    data = rng.integers(0, 256, (200, 64), dtype=np.uint8)
    scrambler = DataScrambler(0xA77AC8E)
    with kernels.overridden(True):
        fast = scrambler.scramble_lines(addresses, data)
    with kernels.overridden(False):
        slow = scrambler.scramble_lines(addresses, data)
    assert np.array_equal(fast, slow)
    for index in (0, 73, 199):
        assert fast[index].tobytes() == scrambler.scramble(
            int(addresses[index]), data[index].tobytes()
        )
    # Involution: scrambling twice restores the input.
    assert np.array_equal(scrambler.scramble_lines(addresses, fast), data)


# ----------------------------------------------------------------------
# The LRU kernel vs an insertion-ordered-dict reference
# ----------------------------------------------------------------------


def _reference_lru(keys, writes, sets, ways):
    """Scalar LRU in the exact idiom of the dict-backed caches."""
    state = [OrderedDict() for _ in range(sets)]
    hits = evictions = dirty_evictions = 0
    for key, write in zip(keys, writes):
        bucket = state[key % sets]
        if key in bucket:
            hits += 1
            bucket[key] |= write
            bucket.move_to_end(key)
            continue
        if len(bucket) >= ways:
            victim, dirty = bucket.popitem(last=False)
            evictions += 1
            dirty_evictions += int(dirty)
        bucket[key] = write
    return hits, evictions, dirty_evictions, state


@given(
    data=st.data(),
    sets=st.sampled_from([1, 2, 4, 8]),
    ways=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=60, deadline=None)
def test_lru_simulate_matches_reference(data, sets, ways):
    count = data.draw(st.integers(1, 120))
    keys = np.array(
        data.draw(st.lists(st.integers(0, 4 * sets * ways),
                           min_size=count, max_size=count)),
        dtype=np.int64,
    )
    writes = np.array(
        data.draw(st.lists(st.booleans(), min_size=count, max_size=count)),
        dtype=bool,
    )
    outcome = lru_simulate(keys, writes, sets, ways)
    hits, evictions, dirty_evictions, state = _reference_lru(
        [int(k) for k in keys], [bool(w) for w in writes], sets, ways
    )
    assert outcome.hits == hits
    assert outcome.evictions == evictions
    assert outcome.dirty_evictions == dirty_evictions
    assert outcome.accesses == count
    for set_index, bucket in enumerate(state):
        # Kernel column 0 is MRU; the dict's insertion order is LRU->MRU.
        resident = [
            int(tag) for tag in outcome.set_tags[set_index] if tag >= 0
        ]
        dirty = [
            bool(d) for tag, d in zip(
                outcome.set_tags[set_index], outcome.set_dirty[set_index]
            ) if tag >= 0
        ]
        expected = list(bucket.items())[::-1]
        assert resident == [key for key, __ in expected]
        assert dirty == [flag for __, flag in expected]


# ----------------------------------------------------------------------
# Trace columns vs TraceGenerator, every profile
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", all_benchmark_names())
def test_trace_columns_match_generator(workload):
    def records(vector_on):
        with kernels.overridden(vector_on):
            instance = generate_workload(
                workload, cores=2, records_per_core=400, seed=2018,
                footprint_scale=1 / 64,
            )
            assert (instance.columns is not None) == vector_on
            return [
                [(r.address, r.gap, r.op) for r in trace]
                for trace in instance.traces
            ]

    assert records(True) == records(False)


# ----------------------------------------------------------------------
# Golden equality: whole runs with the vector path on and off
# ----------------------------------------------------------------------

_FUNCTIONAL_CONFIGS = {
    "plain": {},
    "mdcache-lru": {"metadata_cache": ("lru",)},
    "mdcache-ship": {"metadata_cache": ("ship",)},
    "copr": {"copr_config": CoprConfig(papr_entries=1024,
                                       lipr_entries=256)},
}


def _functional_payload(benchmark, config, vector_on):
    kwargs = {}
    cache = None
    if "metadata_cache" in config:
        (policy,) = config["metadata_cache"]
        cache = MetadataCache(
            capacity_bytes=8 * 1024, ways=8, policy=policy
        )
        kwargs["metadata_cache"] = cache
    if "copr_config" in config:
        kwargs["copr_config"] = config["copr_config"]
    with kernels.overridden(vector_on):
        run = run_functional(
            benchmark, cores=2, records_per_core=1500, seed=2018,
            footprint_scale=1 / 64, llc_bytes=64 * 1024, **kwargs,
        )
    state = None
    if cache is not None:
        # The full end state, not just counters: entry order encodes
        # recency, so callers keep identical behaviour afterwards.
        state = [
            [
                (block, entry.dirty, entry.rrpv, entry.reused)
                for block, entry in bucket.items()
            ]
            for bucket in cache._data
        ]
    return run.to_dict(), state


# ("workload", not "benchmark": pytest-benchmark reserves that name)
@pytest.mark.parametrize("config", sorted(_FUNCTIONAL_CONFIGS))
@pytest.mark.parametrize("workload", ["mcf", "bc.kron", "RAND", "mix1"])
def test_functional_golden_equality(workload, config):
    fast = _functional_payload(workload, _FUNCTIONAL_CONFIGS[config], True)
    slow = _functional_payload(workload, _FUNCTIONAL_CONFIGS[config], False)
    assert fast == slow


_GOLDEN_SCALE = ExperimentScale(
    name="vector-golden", factor=64, cores=2, records_per_core=150,
    warmup_per_core=0,
)


@pytest.mark.parametrize("system", SYSTEMS)
def test_cycle_level_golden_equality(system):
    payloads = []
    for mode in (True, False):
        with kernels.overridden(mode):
            result = run_benchmark(
                "STREAM", system, scale=_GOLDEN_SCALE, seed=2018
            )
        payloads.append(result.to_dict())
    assert payloads[0] == payloads[1]


def test_bank_blob_bytes_identical(tmp_path):
    from repro.workloads import bank

    blobs = []
    for index, mode in enumerate((True, False)):
        with kernels.overridden(mode):
            store = bank.WorkloadBank(tmp_path / str(index))
            key = store.materialize(
                "omnetpp", cores=2, records_per_core=300, seed=2018,
                footprint_scale=1 / 64,
            )
            blobs.append(store.path(key).read_bytes())
    assert blobs[0] == blobs[1]


def test_env_gate_digest_equality(tmp_path):
    """REPRO_VECTOR=0 restores the scalar path with the same digest."""
    snippet = (
        "from repro.fastpath.bench import result_digest\n"
        "from repro.sim.functional import run_functional\n"
        "from repro.core.metadata_cache import MetadataCache\n"
        "run = run_functional('sphinx3', cores=2, records_per_core=800,\n"
        "    seed=2018, footprint_scale=1/64, llc_bytes=64*1024,\n"
        "    metadata_cache=MetadataCache(capacity_bytes=8*1024, ways=8,\n"
        "                                 policy='lru'))\n"
        "print(result_digest(run))\n"
    )
    digests = {}
    for value in ("0", "1"):
        env = dict(os.environ, REPRO_VECTOR=value)
        proc = subprocess.run(
            [sys.executable, "-c", snippet], env=env,
            capture_output=True, text=True, check=True,
        )
        digests[value] = proc.stdout.strip()
    assert digests["0"] == digests["1"]
    assert len(digests["0"]) == 64


def test_vector_gate_controls():
    before = kernels.enabled()
    with kernels.overridden(False):
        assert not kernels.enabled()
        with kernels.overridden(True):
            assert kernels.enabled()
        assert not kernels.enabled()
    assert kernels.enabled() == before


# ----------------------------------------------------------------------
# The vector timing plane: LLC probe batches and the detailed-path env
# gate
# ----------------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_llc_access_many_matches_scalar(data):
    from repro.cpu.cache import LastLevelCache

    count = data.draw(st.integers(1, 250))
    # 16 sets x 4 ways over 64 distinct lines: plenty of conflicts.
    lines = data.draw(st.lists(st.integers(0, 63),
                               min_size=count, max_size=count))
    writes = data.draw(st.lists(st.booleans(),
                                min_size=count, max_size=count))
    addresses = np.array(lines, dtype=np.int64) * 64
    is_write = np.array(writes, dtype=bool)
    batch = LastLevelCache(capacity_bytes=4 * 1024, ways=4)
    scalar = LastLevelCache(capacity_bytes=4 * 1024, ways=4)
    batch.access_many(addresses, is_write)
    for address, write in zip(addresses.tolist(), writes):
        scalar.access(address, is_write=write)
    assert [list(s.items()) for s in batch._lines] == [
        list(s.items()) for s in scalar._lines
    ]
    assert batch.stats.snapshot() == scalar.stats.snapshot()
    with pytest.raises(ValueError):
        batch.access_many(addresses, is_write)  # only from empty


def _detailed_gate_runs(warmup_per_core: int) -> dict:
    """REPRO_VECTOR value -> (digests, warm-up paths taken) of two
    detailed runs in fresh interpreters."""
    snippet = (
        "import sys\n"
        "from repro.fastpath.bench import result_digest\n"
        "from repro.kernels import timing\n"
        "from repro.sim import runner\n"
        "paths = []\n"
        "def spy(path, fn):\n"
        "    def wrapped(*args):\n"
        "        paths.append(path)\n"
        "        return fn(*args)\n"
        "    return wrapped\n"
        "timing.warm_up_vector = spy('vector', timing.warm_up_vector)\n"
        "runner._warm_up = spy('scalar', runner._warm_up)\n"
        "scale = runner.ExperimentScale(name='gate', factor=64, cores=2,\n"
        "    records_per_core=250, warmup_per_core=int(sys.argv[1]))\n"
        "for system in ('attache', 'metadata_cache'):\n"
        "    run = runner.run_benchmark('mcf', system, scale=scale,\n"
        "                               seed=2018)\n"
        "    print(result_digest(run))\n"
        "print(' '.join(paths))\n"
    )
    runs = {}
    for value in ("0", "1"):
        env = dict(os.environ, REPRO_VECTOR=value)
        proc = subprocess.run(
            [sys.executable, "-c", snippet, str(warmup_per_core)], env=env,
            capture_output=True, text=True, check=True,
        )
        *digests, paths = proc.stdout.strip().splitlines()
        runs[value] = (digests, paths.split())
    assert len(runs["0"][0]) == 2
    assert all(len(d) == 64 for d in runs["0"][0])
    assert runs["0"][1] == ["scalar", "scalar"]
    return runs


def test_env_gate_detailed_digest_equality():
    """REPRO_VECTOR=0 keeps the detailed simulator's digests, with the
    deep functional warm-up (the vector warm-up + prewarm path) on."""
    runs = _detailed_gate_runs(750)
    assert runs["1"][1] == ["vector", "vector"]
    assert runs["0"][0] == runs["1"][0]


def test_env_gate_small_warmup_takes_the_scalar_loop():
    """Below the crossover the vector path keeps the scalar warm-up
    loop (its fixed costs dominate there), with the same digests."""
    runs = _detailed_gate_runs(100)
    assert runs["1"][1] == ["scalar", "scalar"]
    assert runs["0"][0] == runs["1"][0]
