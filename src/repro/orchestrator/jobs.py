"""Job specifications and the content-addressed cache-key contract.

A *job* is one grid point of a sweep: (benchmark, system, seed, scale,
run_benchmark keyword arguments).  Jobs are pure data so they can cross
process boundaries and be hashed into stable cache keys.

Cache-key contract (see docs/ORCHESTRATOR.md):

``job_key`` = sha256 over the canonical JSON of::

    {"job_schema":    JOB_SCHEMA_VERSION,
     "result_schema": RESULT_SCHEMA_VERSION,
     "benchmark": ..., "system": ..., "seed": ...,
     "scale": ExperimentScale.to_dict(),
     "parameters": canonicalised kwargs,
     "code": code_fingerprint()}          # optional, on by default

Canonical JSON means ``sort_keys=True`` with compact separators, with
dataclass parameter values (``CoprConfig``, ``BlemConfig``, ...) tagged
by class name so distinct config types can never alias.  Including the
code fingerprint means a cache can never serve results computed by a
different version of the simulator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional

from repro.core.blem import BlemConfig
from repro.core.copr import CoprConfig
from repro.obs import ObsConfig
from repro.sim.runner import ExperimentScale, run_benchmark
from repro.sim.simulator import RESULT_SCHEMA_VERSION, SimulationResult

#: Version of the job-spec / cache-key encoding itself.  Bump when the
#: canonicalisation or key layout changes; old cache entries then simply
#: never match.
JOB_SCHEMA_VERSION = 1

#: Parameter dataclasses that may appear as run_benchmark kwargs and are
#: rebuilt by class name on the worker side.
_REHYDRATABLE = {
    "CoprConfig": CoprConfig,
    "BlemConfig": BlemConfig,
    "ExperimentScale": ExperimentScale,
    "ObsConfig": ObsConfig,
}


def canonical(value: Any) -> Any:
    """Reduce *value* to JSON-compatible data with a stable encoding.

    Dataclasses become ``{"__type__": ClassName, ...fields...}``;
    mappings/sequences recurse; anything else must already be a JSON
    scalar.  Raises :class:`TypeError` for values with no stable
    encoding rather than hashing something ambiguous.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        encoded = {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        encoded["__type__"] = type(value).__name__
        return encoded
    if isinstance(value, Mapping):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} for a cache key; "
        "use JSON scalars, dataclass configs, mappings or sequences"
    )


def rehydrate(value: Any) -> Any:
    """Inverse of :func:`canonical` for parameter values."""
    if isinstance(value, Mapping):
        if "__type__" in value:
            cls = _REHYDRATABLE.get(value["__type__"])
            if cls is None:
                raise ValueError(
                    f"unknown parameter dataclass {value['__type__']!r}"
                )
            kwargs = {
                key: rehydrate(item)
                for key, item in value.items()
                if key != "__type__"
            }
            return cls(**kwargs)
        return {key: rehydrate(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rehydrate(item) for item in value]
    return value


def stable_key(payload: Mapping[str, Any]) -> str:
    """sha256 hex digest of the canonical JSON encoding of *payload*."""
    encoded = json.dumps(
        canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Content hash of every ``repro`` source file.

    Folding this into cache keys makes a result cache safe across code
    changes: editing any simulator source invalidates every key, so a
    cache can never serve results the current code would not reproduce.
    """
    import repro

    root = pathlib.Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One grid point, expressed as pure data.

    ``parameters`` are extra keyword arguments for
    :func:`repro.sim.runner.run_benchmark`; dataclass values such as
    :class:`CoprConfig` are allowed and survive the worker boundary.
    """

    benchmark: str
    system: str
    seed: int
    scale: ExperimentScale
    parameters: Mapping[str, object] = field(default_factory=dict)

    def key(self, include_code: bool = True) -> str:
        """The content-addressed cache key for this job."""
        payload: Dict[str, Any] = {
            "job_schema": JOB_SCHEMA_VERSION,
            "result_schema": RESULT_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "system": self.system,
            "seed": self.seed,
            "scale": self.scale,
            "parameters": dict(self.parameters),
        }
        if include_code:
            payload["code"] = code_fingerprint()
        return stable_key(payload)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "system": self.system,
            "seed": self.seed,
            "scale": self.scale.to_dict(),
            "parameters": canonical(dict(self.parameters)),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        return cls(
            benchmark=payload["benchmark"],
            system=payload["system"],
            seed=payload["seed"],
            scale=ExperimentScale.from_dict(payload["scale"]),
            parameters=rehydrate(dict(payload["parameters"])),
        )

    def describe(self) -> str:
        extras = ",".join(f"{k}={v}" for k, v in sorted(
            canonical(dict(self.parameters)).items()
        ))
        base = f"{self.benchmark}/{self.system}/seed={self.seed}"
        return f"{base}[{extras}]" if extras else base


def execute_job(spec: JobSpec) -> SimulationResult:
    """Default job runner: one full-timing simulation of the grid point."""
    kwargs = {key: rehydrate(value) for key, value in spec.parameters.items()}
    return run_benchmark(
        spec.benchmark, spec.system, scale=spec.scale, seed=spec.seed,
        **kwargs,
    )


def preload_job_imports() -> None:
    """Import the modules :func:`execute_job` would import on first use.

    A forked worker inherits what its parent imported, so calling this
    once before the first fork saves every worker (and every recycled
    replacement) the imports on its first job: the workload bank, and
    with the vector path on, the kernels plus ``numpy.ma`` (numpy's
    ``unique`` imports it lazily).
    """
    from repro import kernels
    from repro.workloads import bank  # noqa: F401

    if kernels.enabled():
        import numpy.ma  # noqa: F401

        from repro.kernels import (  # noqa: F401
            classify,
            scramble,
            timing,
            tracegen,
        )


__all__ = [
    "JOB_SCHEMA_VERSION",
    "JobSpec",
    "canonical",
    "code_fingerprint",
    "execute_job",
    "preload_job_imports",
    "rehydrate",
    "stable_key",
]
