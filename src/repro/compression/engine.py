"""The best-of-N compression/decompression engine.

Mirrors the paper's memory-controller engine (Section V): every write is
compressed with both BDI and FPC and the smaller result wins.  A block is
*sub-rank compressible* when its best payload fits in 30 bytes, leaving
room for the 2-byte Metadata-Header inside a 32-byte sub-rank transfer.

Compression runs on every simulated write, so the engine memoises results
by line content in one bounded memo, cleared wholesale when full.  Few
line values repeat: measured at seed 2018, 4-13 % of the memo's lookups
hit (docs/PERFORMANCE.md, "Measured memo hit rates").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro import fastpath
from repro.compression.base import CompressedBlock, CompressionAlgorithm
from repro.compression.bdi import BdiCompressor
from repro.compression.fpc import FpcCompressor
from repro.fastpath import classifiers as _classifiers
from repro.util.bitops import CACHELINE_BYTES

#: Target payload size for a compressed line: a 32-byte sub-rank beat
#: minus the 2-byte (15-bit CID + 1-bit XID) Metadata-Header.
SUBRANK_PAYLOAD_BYTES = 30

@dataclass
class CompressionStats:
    """Aggregate counters maintained by a :class:`CompressionEngine`."""

    blocks_compressed: int = 0
    blocks_incompressible: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    wins_by_algorithm: Dict[str, int] = field(default_factory=dict)

    @property
    def compressible_fraction(self) -> float:
        """Fraction of blocks that compressed below the target size."""
        total = self.blocks_compressed + self.blocks_incompressible
        return self.blocks_compressed / total if total else 0.0

    @property
    def mean_ratio(self) -> float:
        """Mean compression ratio over all blocks seen (1.0 = no gain)."""
        return self.bytes_in / self.bytes_out if self.bytes_out else 1.0


class CompressionEngine:
    """Runs several compressors and keeps the best result per line.

    Args:
        algorithms: compressors to race; defaults to BDI + FPC as in the
            paper.
        target_size: payload budget that defines "compressible" — 30 bytes
            for the paper's two-sub-rank design point.
        cache_entries: capacity of the content-keyed memoisation cache
            (0 disables memoisation).
    """

    def __init__(
        self,
        algorithms: Optional[Sequence[CompressionAlgorithm]] = None,
        target_size: int = SUBRANK_PAYLOAD_BYTES,
        cache_entries: int = fastpath.MEMO_ENTRIES,
    ) -> None:
        if target_size <= 0 or target_size > CACHELINE_BYTES:
            raise ValueError(f"target_size out of range: {target_size}")
        if algorithms is None:
            algorithms = [BdiCompressor(), FpcCompressor()]
        self._algorithms = list(algorithms)
        if not self._algorithms:
            raise ValueError("at least one compression algorithm is required")
        names = [algo.name for algo in self._algorithms]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate algorithm names: {names}")
        self._by_name = {algo.name: algo for algo in self._algorithms}
        self._target_size = target_size
        self._cache_entries = cache_entries
        self.stats = CompressionStats()
        # Fast path: size-only classification.  Active only when every
        # racing algorithm has an exact size classifier — an engine with
        # an exotic compressor transparently keeps the full-encode path.
        size_fns = [_classifiers.classify(algo) for algo in self._algorithms]
        self._size_fns = size_fns if all(size_fns) and fastpath.enabled() else None
        #: Everything the engine's output depends on: engines with equal
        #: fingerprints compress every line alike.
        self.fingerprint = (
            tuple(type(algo).__name__ for algo in self._algorithms),
            tuple(names),
            target_size,
        )
        #: content -> best block, or ``None`` for an incompressible line.
        #: A pure function of line content, so engines of one fingerprint
        #: may share it (fastpath.share_memos); the capacity and the path
        #: complete the memo's fingerprint, so a reference-path engine
        #: never reads a fast-path entry.
        self._cache: Dict[bytes, Optional[CompressedBlock]] = fastpath.memo(
            "compression.content",
            (self.fingerprint, cache_entries, self._size_fns is not None),
        )
        self.perf_full_encodes = 0
        #: name -> fast prefix decoder, for algorithms that have one.
        self._prefix_decoders = (
            {
                algo.name: decoder
                for algo in self._algorithms
                if (decoder := _classifiers.prefix_decoder(algo)) is not None
            }
            if self._size_fns is not None
            else {}
        )

    @property
    def target_size(self) -> int:
        """Payload budget in bytes that defines sub-rank compressibility."""
        return self._target_size

    @property
    def algorithm_names(self) -> Sequence[str]:
        """Names of the racing compressors, in priority order."""
        return tuple(self._by_name)

    def compress(self, data: bytes) -> Optional[CompressedBlock]:
        """Return the smallest compression of *data*, or ``None``.

        ``None`` means no algorithm got the payload within the target
        size, i.e. the line is stored uncompressed across both sub-ranks.
        """
        if len(data) != CACHELINE_BYTES:
            raise ValueError(f"expected a {CACHELINE_BYTES}-byte line, got {len(data)}")
        best = self._lookup(data)
        if best is None:
            self.stats.blocks_incompressible += 1
            self.stats.bytes_in += CACHELINE_BYTES
            self.stats.bytes_out += CACHELINE_BYTES
        else:
            self.stats.blocks_compressed += 1
            self.stats.bytes_in += CACHELINE_BYTES
            self.stats.bytes_out += best.size
            wins = self.stats.wins_by_algorithm
            wins[best.algorithm] = wins.get(best.algorithm, 0) + 1
        return best

    def is_compressible(self, data: bytes) -> bool:
        """True when *data* compresses to at most the target size."""
        if self._size_fns is None:
            return self._lookup(data) is not None
        if self._cache_entries:
            cached = self._cache.get(data)
            if cached is not None or data in self._cache:
                return cached is not None
        # The boolean only needs *one* algorithm under the target, so stop
        # at the first fit instead of racing all of them.  The winner stays
        # unknown then, so only the negative (all classifiers over target,
        # exactly a ``None`` best block) is written back to the memo.
        target = self._target_size
        for size_fn in self._size_fns:
            # Classifiers *may* return over-target sizes instead of None
            # (the target is an early-stop hint, not a filter), so the fit
            # test must re-check the size.
            result = size_fn(data, target)
            if result is not None and result[0] <= target:
                return True
        self._remember(data, None)
        return False

    def is_compressible_many(self, matrix):
        """Per-row :meth:`is_compressible` over an (N, 64) uint8 matrix.

        Engines running exactly the BDI/FPC codecs classify the whole
        batch through the vector kernels (:mod:`repro.kernels.classify`)
        when the vector path is enabled; any other configuration falls
        back to the scalar method per row.  Returns a numpy bool array
        (callers live on the vector path, so numpy is available).
        """
        import numpy as np

        from repro import kernels

        if kernels.enabled() and {type(algo) for algo in self._algorithms} <= {
            BdiCompressor,
            FpcCompressor,
        }:
            from repro.kernels import classify

            target = self._target_size
            mask = np.zeros(matrix.shape[0], dtype=bool)
            kinds = {type(algo) for algo in self._algorithms}
            if BdiCompressor in kinds:
                sizes = classify.bdi_size_matrix(matrix)
                mask |= (sizes >= 0) & (sizes <= target)
            if FpcCompressor in kinds:
                sizes = classify.fpc_size_matrix(matrix)
                mask |= (sizes >= 0) & (sizes <= target)
            return mask
        return np.fromiter(
            (self.is_compressible(row.tobytes()) for row in matrix),
            dtype=bool,
            count=matrix.shape[0],
        )

    def compressed_size(self, data: bytes) -> int:
        """Best payload size, or the full line size if incompressible."""
        best = self._lookup(data)
        return best.size if best is not None else CACHELINE_BYTES

    def decompress(self, block: CompressedBlock) -> bytes:
        """Route a compressed block to the algorithm that produced it."""
        algorithm = self._by_name.get(block.algorithm)
        if algorithm is None:
            raise ValueError(f"no such algorithm: {block.algorithm!r}")
        return algorithm.decompress(block.payload)

    def decompress_prefix(self, algorithm_name: str, padded_payload: bytes) -> bytes:
        """Decode a zero-padded payload slot with the named algorithm."""
        decoder = self._prefix_decoders.get(algorithm_name)
        if decoder is not None:
            return decoder(padded_payload)
        algorithm = self._by_name.get(algorithm_name)
        if algorithm is None:
            raise ValueError(f"no such algorithm: {algorithm_name!r}")
        return algorithm.decompress_prefix(padded_payload)

    # ------------------------------------------------------------------

    def _lookup(self, data: bytes) -> Optional[CompressedBlock]:
        if self._cache_entries:
            cached = self._cache.get(data)
            if cached is not None or data in self._cache:
                return cached
        if self._size_fns is not None:
            best = self._materialize_best(data)
        else:
            best = self._compress_uncached(data)
        self._remember(data, best)
        return best

    def _remember(self, data: bytes, best: Optional[CompressedBlock]) -> None:
        # The memo holds a pure function of the content, so the eviction
        # policy cannot affect results: it is cleared wholesale when full.
        if self._cache_entries:
            if len(self._cache) >= self._cache_entries:
                self._cache.clear()
            self._cache[data] = best

    def _compress_uncached(self, data: bytes) -> Optional[CompressedBlock]:
        best: Optional[CompressedBlock] = None
        for algorithm in self._algorithms:
            block = algorithm.compress(data)
            if block is not None and block.size <= self._target_size:
                if best is None or block.size < best.size:
                    best = block
        return best

    # ------------------------------------------------------------------
    # Fast path: size-only classification, winner-only materialisation
    # ------------------------------------------------------------------

    def _classify(self, data: bytes) -> Optional[Tuple[int, int, object]]:
        """Winner of the size race as ``(size, algo index, token)``.

        Matches ``_compress_uncached`` selection exactly: only sizes at or
        below the target compete, strict-less-than keeps the earliest
        algorithm on ties.
        """
        winner: Optional[Tuple[int, int, object]] = None
        target = self._target_size
        for index, size_fn in enumerate(self._size_fns):
            # Passing the target lets classifiers stop early on sizes the
            # engine would discard; they may report those as None.
            result = size_fn(data, target)
            if result is not None and result[0] <= target:
                if winner is None or result[0] < winner[0]:
                    winner = (result[0], index, result[1])
        return winner

    def _materialize_best(self, data: bytes) -> Optional[CompressedBlock]:
        winner = self._classify(data)
        if winner is None:
            return None
        size, index, token = winner
        self.perf_full_encodes += 1
        block = _classifiers.materialize(self._algorithms[index], data, token)
        if block.size != size:  # pragma: no cover - classifier/codec divergence
            raise RuntimeError(
                f"{block.algorithm} classifier predicted {size} bytes but the "
                f"encoder produced {block.size}; classifier and codec are out "
                "of sync"
            )
        return block
