"""Resolving declarative trace sources into concrete traces.

A campaign scenario never embeds a trace; it *describes* one -- either a
path to an SWF file or the parameters of a statistical model -- plus an
optional transformation chain and an adaptive-conversion mix.  This module
turns such a description into jobs, recording the full derivation (source
fingerprint, model parameters, every transformation, the mix) as provenance
that the campaign result store persists next to the metrics.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.errors import SpecError
from ..core.serde import Spec, located
from ..core.textio import read_trace_text
from ..sim.randomness import derive_seed, stable_fingerprint
from .convert import AdaptiveMix, ConvertedJob, convert_trace, mix_counts
from .models import TraceModel
from .swf import Trace, loads_swf
from .transform import Pipeline

__all__ = ["TraceSource", "resolve_trace", "resolve_converted_jobs"]

#: Jobs synthesized from a model source when *job_count* is unset.
DEFAULT_JOB_COUNT = 100


@dataclass(frozen=True)
class TraceSource(Spec):
    """Declarative description of where a workload trace comes from.

    Exactly one of *path* (an SWF file, optionally gzip-compressed) and
    *model* (a :class:`~repro.traces.models.TraceModel` dictionary) must be
    given.  *job_count* applies to model sources only -- how many jobs to
    synthesize (default 100); a file replays in full.  *transforms* is a
    list of transformation dictionaries applied in order (see
    :mod:`repro.traces.transform`); *mix* optionally converts the rigid
    records into adaptive applications
    (see :class:`~repro.traces.convert.AdaptiveMix`).  The whole object
    round-trips through JSON, so scenario specs stay declarative.
    """

    path: Optional[str] = None
    model: Optional[Mapping] = None
    job_count: Optional[int] = None
    transforms: Tuple[Mapping, ...] = ()
    mix: Optional[Mapping] = None
    strict: bool = True

    def validate(self) -> None:
        if (self.path is None) == (self.model is None):
            raise SpecError("exactly one of path/model must be given")
        if self.path is not None and self.job_count is not None:
            # A file replays in full; accepting the knob would silently
            # persist a job count the replay ignores.
            raise SpecError("job_count only applies to model-backed sources")
        if self.job_count is not None and self.job_count <= 0:
            raise SpecError("job_count must be positive")
        # The sections stay plain dictionaries (they are the provenance
        # record); loading each one here validates it eagerly.
        if self.model is not None:
            with located("model"):
                object.__setattr__(self, "model", dict(self.model))
                TraceModel.from_dict(self.model)
        with located("transforms"):
            object.__setattr__(
                self, "transforms", tuple(dict(t) for t in self.transforms or ())
            )
            Pipeline.from_dicts(self.transforms)
        if self.mix is not None:
            with located("mix"):
                object.__setattr__(self, "mix", dict(self.mix))
                AdaptiveMix.from_dict(self.mix)


@lru_cache(maxsize=8)
def _load_file_trace(path_str: str, strict: bool, transforms_json: str) -> Trace:
    """Load, fingerprint and transform an SWF file, cached per process.

    Every (scenario, seed) run of a campaign resolves its trace source, but
    a file-backed trace is seed-independent -- including its transformation
    pipeline -- so re-reading, re-parsing and re-transforming a
    multi-megabyte archive trace per run would dominate the replay.  The
    pipeline enters as canonical JSON because tuples of dictionaries are
    unhashable.  The returned :class:`Trace` is frozen and its consumers
    never mutate it, so sharing one instance across runs in a worker
    process is safe.  The flip side: a file edited in place during the
    process's lifetime is not re-read (the recorded fingerprint still
    names the content replayed).
    """
    text = read_trace_text(path_str)
    trace = loads_swf(text, strict=strict, source=path_str)
    # Fingerprint the decompressed content just read: renamed or
    # silently-edited inputs become visible in the result store.
    trace = trace.with_step(
        {"kind": "fingerprint", "sha256_16": stable_fingerprint(text)}
    )
    return Pipeline.from_dicts(json.loads(transforms_json)).apply(trace)


def resolve_trace(source: TraceSource, seed: Optional[int] = None) -> Trace:
    """Load or synthesize the trace a :class:`TraceSource` describes.

    File-backed sources ignore *seed* entirely (replaying a file is
    deterministic by definition); model-backed sources derive their
    synthesis seed as ``derive_seed(seed, "trace-synth")`` so the trace is a
    pure function of the scenario seed, independent of execution order.
    """
    if source.path is not None:
        return _load_file_trace(
            str(source.path),
            source.strict,
            json.dumps(list(source.transforms), sort_keys=True),
        )
    model = TraceModel.from_dict(source.model)
    trace = model.synthesize(
        source.job_count if source.job_count is not None else DEFAULT_JOB_COUNT,
        seed=derive_seed(seed, "trace-synth"),
    )
    return Pipeline.from_dicts(source.transforms).apply(trace)


def resolve_converted_jobs(
    source: TraceSource,
    seed: Optional[int] = None,
    max_nodes: Optional[int] = None,
) -> Tuple[List[ConvertedJob], Dict]:
    """Resolve a source all the way to converted jobs plus their provenance.

    Returns ``(jobs, provenance)`` where *provenance* is the JSON-friendly
    record the campaign layer stores next to the run metrics: the source
    description, the applied pipeline steps and the realised kind counts.
    """
    trace = resolve_trace(source, seed=seed)
    mix = AdaptiveMix() if source.mix is None else AdaptiveMix.from_dict(source.mix)
    jobs = convert_trace(
        trace, mix=mix, seed=derive_seed(seed, "trace-convert"), max_nodes=max_nodes
    )
    provenance = {
        "source": source.to_dict(),
        "steps": [dict(step) for step in trace.provenance],
        "kind_counts": mix_counts(jobs),
        "job_count": len(jobs),
    }
    return jobs, provenance
