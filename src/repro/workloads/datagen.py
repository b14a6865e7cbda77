"""Deterministic cacheline content generation with controlled compressibility.

Every line's content is a pure function of (seed, line address, version),
so simulations are reproducible and memory never needs to hold the whole
footprint.  A :class:`DataProfile` controls the *target* fraction of
lines compressible to 30 bytes and how strongly that property clusters
within 4 KB pages — the two knobs the paper's predictors key on.

Generated content is *verified*: a line targeted compressible is checked
against the real BDI/FPC engine (and regenerated with a new salt if some
pattern accidentally failed), and vice versa, so measured compressibility
matches the profile exactly rather than approximately.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Tuple

from repro import fastpath
from repro.compression import CompressionEngine
from repro.util.bitops import CACHELINE_BYTES
from repro.util.rng import DeterministicRng

PAGE_BYTES = 4096
LINES_PER_PAGE = PAGE_BYTES // CACHELINE_BYTES


@dataclass(frozen=True)
class DataProfile:
    """Statistical description of a benchmark's data contents.

    Attributes:
        compressible_fraction: overall fraction of lines that compress to
            at most 30 bytes (the Fig. 4 value for the benchmark).
        page_uniformity: probability that a 4 KB page is "pure" — all of
            its lines share one compressibility class.  High uniformity
            is what makes page-level prediction (PaPR) effective; low
            uniformity leaves work for the line-level predictor (LiPR).
        store_churn: probability that a store flips the line's
            compressibility class (the paper observes compressibility is
            mostly stable over a line's lifetime).
    """

    compressible_fraction: float = 0.5
    page_uniformity: float = 0.8
    store_churn: float = 0.03

    def __post_init__(self) -> None:
        for name in ("compressible_fraction", "page_uniformity", "store_churn"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


class DataModel:
    """Supplies the byte contents of every cacheline in a workload.

    The model tracks a per-line version that stores bump; contents (and
    occasionally compressibility class, per ``store_churn``) change with
    the version.
    """

    #: Compressible content patterns and their selection weights.
    _PATTERN_WEIGHTS = (
        ("zeros", 1),
        ("repeat8", 2),
        ("base8_delta1", 4),
        ("base4_delta1", 4),
        ("fpc_small_words", 3),
        ("fpc_sparse", 3),
    )

    def __init__(
        self,
        profile: DataProfile,
        seed: int,
        engine: CompressionEngine = None,
    ) -> None:
        self._profile = profile
        self._seed = seed & ((1 << 64) - 1)
        self._engine = engine if engine is not None else CompressionEngine()
        self._versions: Dict[int, int] = {}
        # The memos below hold pure functions of (seed, profile, line,
        # version) under the engine's fingerprint, so models of one
        # fingerprint may share them (fastpath.share_memos): a warm worker
        # running several jobs of one workload then generates each line's
        # content once instead of once per job.  The mutable per-run
        # state (``_versions``) is never shared.
        fingerprint = (profile, self._seed, self._engine.fingerprint)
        #: line -> (highest version counted, flips up to that version);
        #: keeps `line_class` O(1) amortised as versions grow.
        self._flip_cache: Dict[int, Tuple[int, int]] = fastpath.memo(
            "datagen.flips", fingerprint
        )
        #: (line, version) -> generated content; hot lines are re-read
        #: constantly by the simulator and generation is expensive.
        self._content_cache: Dict[Tuple[int, int], bytes] = fastpath.memo(
            "datagen.content", fingerprint
        )
        #: (line, version) -> class; line_class is pure and re-queried by
        #: the warm-up trainer and every content-cache miss.
        self._class_cache: Dict[Tuple[int, int], bool] = (
            fastpath.memo("datagen.class", fingerprint)
            if fastpath.enabled() else None
        )
        self._total_weight = sum(w for __, w in self._PATTERN_WEIGHTS)

    @property
    def profile(self) -> DataProfile:
        return self._profile

    @property
    def engine(self) -> CompressionEngine:
        return self._engine

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------

    def version_of(self, line_address: int) -> int:
        return self._versions.get(line_address, 0)

    def note_store(self, line_address: int) -> None:
        """A store dirtied the line: its next write-back carries new data."""
        self._versions[line_address] = self.version_of(line_address) + 1

    # ------------------------------------------------------------------
    # Compressibility classes
    # ------------------------------------------------------------------

    def _hash(self, *parts: int) -> int:
        # splitmix64 inlined into the fold: this hash seeds every content
        # generation and class draw, so the call overhead is measurable.
        state = self._seed
        mask = (1 << 64) - 1
        for part in parts:
            z = (state ^ (part * 0x9E3779B97F4A7C15 & mask)) + 0x9E3779B97F4A7C15 & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            state = (z ^ (z >> 31)) & mask
        return state

    def _unit(self, *parts: int) -> float:
        return (self._hash(*parts) >> 11) / 9007199254740992.0

    def line_class(self, line_address: int, version: int = None) -> bool:
        """Target compressibility class of the line at *version*.

        ``True`` means the content will compress to <= 30 bytes.
        """
        if version is None:
            version = self.version_of(line_address)
        cache = self._class_cache
        if cache is not None:
            cached = cache.get((line_address, version))
            if cached is not None:
                return cached
        page = line_address // LINES_PER_PAGE
        base = self._base_class(page, line_address)
        result = base ^ (self._flips_up_to(line_address, version) % 2 == 1)
        if cache is not None:
            if len(cache) >= fastpath.MEMO_ENTRIES:
                cache.clear()
            cache[(line_address, version)] = result
        return result

    def _flips_up_to(self, line_address: int, version: int) -> int:
        """Stores that flipped the line's class in versions 1..version."""
        cached_version, cached_flips = self._flip_cache.get(line_address, (0, 0))
        if version >= cached_version:
            start, flips = cached_version, cached_flips
        else:
            start, flips = 0, 0
        for v in range(start + 1, version + 1):
            if self._unit(line_address, v, 0xF11B) < self._profile.store_churn:
                flips += 1
        if version >= cached_version:
            self._flip_cache[line_address] = (version, flips)
        return flips

    def _base_class(self, page: int, line_address: int) -> bool:
        fraction = self._profile.compressible_fraction
        if self._unit(page, 0xBA5E) < self._profile.page_uniformity:
            # Pure page: every line shares the page's class.
            return self._unit(page, 0xC1A5) < fraction
        return self._unit(line_address, 0x11FE) < fraction

    # ------------------------------------------------------------------
    # Content generation
    # ------------------------------------------------------------------

    def line_data(self, line_address: int, version: int = None) -> bytes:
        """Deterministic content of the line at *version* (default: current)."""
        if version is None:
            version = self.version_of(line_address)
        cache_key = (line_address, version)
        cached = self._content_cache.get(cache_key)
        if cached is not None:
            return cached
        compressible = self.line_class(line_address, version)
        for salt in range(16):
            data = self._generate(line_address, version, salt, compressible)
            if self._engine.is_compressible(data) == compressible:
                if len(self._content_cache) >= fastpath.MEMO_ENTRIES:
                    self._content_cache.clear()
                self._content_cache[cache_key] = data
                return data
        raise RuntimeError(
            f"could not generate {'' if compressible else 'in'}compressible "
            f"content for line {line_address:#x} v{version}"
        )

    def _generate(
        self, line_address: int, version: int, salt: int, compressible: bool
    ) -> bytes:
        rng = DeterministicRng(self._hash(line_address, version, salt, 0xDA7A))
        if not compressible:
            return rng.next_bytes(CACHELINE_BYTES)
        pick = rng.next_below(self._total_weight)
        for name, weight in self._PATTERN_WEIGHTS:
            if pick < weight:
                return getattr(self, f"_pattern_{name}")(rng)
            pick -= weight
        raise AssertionError("unreachable: pattern weights exhausted")

    @staticmethod
    def _pattern_zeros(rng: DeterministicRng) -> bytes:
        return bytes(CACHELINE_BYTES)

    @staticmethod
    def _pattern_repeat8(rng: DeterministicRng) -> bytes:
        return rng.next_bytes(8) * 8

    @staticmethod
    def _pattern_base8_delta1(rng: DeterministicRng) -> bytes:
        base = rng.next_u64()
        words = [(base + rng.next_below(200) - 100) % (1 << 64) for _ in range(8)]
        return struct.pack("<8Q", *words)

    @staticmethod
    def _pattern_base4_delta1(rng: DeterministicRng) -> bytes:
        base = rng.next_u64() & 0xFFFFFFFF
        words = [(base + rng.next_below(200) - 100) % (1 << 32) for _ in range(16)]
        return struct.pack("<16I", *words)

    @staticmethod
    def _pattern_fpc_small_words(rng: DeterministicRng) -> bytes:
        # 32-bit words that sign-extend from 8 bits (FPC prefix 010).
        words = [(rng.next_below(256) - 128) % (1 << 32) for _ in range(16)]
        return struct.pack("<16I", *words)

    @staticmethod
    def _pattern_fpc_sparse(rng: DeterministicRng) -> bytes:
        # Mostly-zero line with a few small non-zero words.
        words = [0] * 16
        for _ in range(rng.next_below(4) + 1):
            words[rng.next_below(16)] = rng.next_below(1 << 15)
        return struct.pack("<16I", *words)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def measure_compressibility(
        self, line_addresses, at_version: int = 0
    ) -> Tuple[int, int]:
        """Return ``(compressible, total)`` over the given lines."""
        from repro import kernels

        if kernels.enabled():
            from repro.kernels.datagen import (
                measure_compressibility as batch_measure,
            )

            return batch_measure(self, line_addresses, at_version)
        compressible = 0
        total = 0
        for line in line_addresses:
            total += 1
            if self._engine.is_compressible(self.line_data(line, at_version)):
                compressible += 1
        return compressible, total
