"""One strict loader for every declarative spec of the package.

Campaigns, scenarios, federations, fault plans, trace sources and SLO specs
all reach the simulator as plain dictionaries (usually parsed from a JSON
file).  :func:`from_strict_dict` turns one into its frozen dataclass or
raises a :class:`~repro.core.errors.SpecError` that says *where* the input
is wrong (``scenarios[0].faults.events[0]: ...``); :func:`read_json` does
the same for the file around it.  Nothing else in the package rejects
unknown keys.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import MISSING, fields
from typing import Any, Callable, Iterator, Mapping, Optional

from .errors import ReproError, SpecError

__all__ = ["from_strict_dict", "located", "read_json"]

#: What a constructor (or a nested loader) raises on bad input.
_REJECTIONS = (TypeError, ValueError, ReproError)


@contextmanager
def located(where: str) -> Iterator[None]:
    """Re-raise what the block rejects as a :class:`SpecError` under *where*.

    Paths compose outwards: ``events[0]`` raised under ``faults`` under
    ``scenarios[0]`` reads ``scenarios[0].faults.events[0]: ...``.
    """
    try:
        yield
    except _REJECTIONS as exc:
        reason, path = (exc.reason, exc.path) if isinstance(exc, SpecError) else (exc, "")
        dot = "." if where and path and not path.startswith("[") else ""
        raise SpecError(reason, f"{where}{dot}{path}") from None


def _promote(loader, value, where: str):
    """Load one nested section (a ready-made instance passes)."""
    with located(where):
        if isinstance(loader, list):
            if not isinstance(value, (list, tuple)):
                raise SpecError(f"must be a list, got {type(value).__name__}")
            return tuple(
                _promote(loader[0], item, f"[{i}]") for i, item in enumerate(value)
            )
        if isinstance(loader, type) and isinstance(value, loader):
            return value
        return getattr(loader, "from_dict", loader)(value)


def from_strict_dict(cls, data: Any, where: str = "", nested: Optional[Mapping] = None):
    """Build dataclass *cls* from the mapping *data*, or say what is wrong.

    Non-mappings, unknown keys and missing required keys are rejected.
    *nested* maps field names to what loads their section: a spec class
    (its ``from_dict``) or any ``mapping -> object`` callable, ``[loader]``
    for a list of sections.  Whatever a section or the constructor rejects
    comes out as a :class:`SpecError` whose path starts with *where*.
    """
    with located(where):
        if not isinstance(data, Mapping):
            raise SpecError(
                f"{cls.__name__} must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name: f for f in fields(cls) if f.init}
        unknown = sorted(str(key) for key in set(data) - set(known))
        if unknown:
            raise SpecError(f"{cls.__name__} does not understand field(s): {unknown}")
        missing = [
            name
            for name, f in known.items()
            if name not in data and f.default is MISSING and f.default_factory is MISSING
        ]
        if missing:
            raise SpecError(f"{cls.__name__} needs field(s): {missing}")
        kwargs = dict(data)
        for name, loader in (nested or {}).items():
            # None stands for "absent" only where that is the field's default.
            if name in kwargs and not (kwargs[name] is None and known[name].default is None):
                kwargs[name] = _promote(loader, kwargs[name], name)
        return cls(**kwargs)


def read_json(path, load: Callable[[Any], Any] = lambda data: data):
    """Parse the JSON file *path* and hand the result to *load*.

    An unreadable file, invalid JSON and everything *load* rejects are all
    a :class:`SpecError` that names the file first.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load(json.load(handle))
    except OSError as exc:
        raise SpecError(exc.strerror or exc, str(path)) from None
    except _REJECTIONS as exc:  # JSONDecodeError is a ValueError
        raise SpecError(exc, str(path)) from None
