"""One codec for every declarative spec of the package.

Campaigns, scenarios, federations, fault plans, trace sources and SLO specs
all reach the simulator as plain dictionaries (usually parsed from a JSON
file) and leave it the same way.  A spec class derives from :class:`Spec`:
its dictionary form is its dataclass fields, written by
:meth:`Spec.to_dict` and read back by :meth:`Spec.from_dict`, and its
nested sections are named once, in ``NESTED``, which promotes them on
construction whoever calls it.  :func:`from_strict_dict` raises a
:class:`~repro.core.errors.SpecError` that says *where* the input is wrong
(``scenarios[0].faults.events[0]: ...``); :func:`read_json` does the same
for the file around it.  Nothing else in the package rejects unknown keys
or writes a spec.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import MISSING, fields
from functools import lru_cache
from typing import Any, Callable, ClassVar, Dict, Iterator, Tuple

from .errors import ReproError, SpecError

__all__ = ["Spec", "from_strict_dict", "located", "read_json", "require_text"]

#: What a constructor (or a nested loader) raises on bad input; ``int(inf)``
#: raises OverflowError.
_REJECTIONS = (TypeError, ValueError, OverflowError, ReproError)


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


@lru_cache(maxsize=None)
def _init_fields(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.init)


def _write(value):
    """The JSON form of a field value: specs as dicts, tuples as lists."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_write(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _write(item) for key, item in value.items()}
    return value


def _require_strict_json(value, where: str) -> None:
    """Reject the first NaN or infinity in a field value: strict JSON (the
    wire's and the store's) holds neither.  A nested spec is passed over: it
    checked its own fields when it was built."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SpecError(f"must be finite, got {value}", where)
    elif isinstance(value, Mapping):
        for key, item in value.items():
            _require_strict_json(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _require_strict_json(item, f"{where}[{index}]")


def require_text(value, where: str) -> None:
    """Reject a free-form text field (a description, a label) that holds no
    string: JSON lets it hold anything."""
    if not isinstance(value, str):
        raise SpecError(f"must be a string, got {type(value).__name__}", where)


def _promote(loader, value, where: str):
    """Load one nested section.

    A spec class loads whatever is not already an instance (its loader
    rejects a non-mapping by name); a function loads mappings only and
    leaves the rest to the owner's checks; ``[loader]`` loads a list.
    """
    with located(where):
        if isinstance(loader, list):
            if not isinstance(value, (list, tuple)):
                raise SpecError(f"must be a list, got {type(value).__name__}")
            return tuple(
                _promote(loader[0], item, f"[{i}]") for i, item in enumerate(value)
            )
        if isinstance(loader, type):
            return value if isinstance(value, loader) else loader.from_dict(value)
        return loader(value) if isinstance(value, Mapping) else value


class Spec:
    """Base of the frozen dataclass specs: the JSON form is the fields.

    ``NESTED`` maps a field to what loads its section -- a spec class, a
    ``mapping -> object`` function or ``[loader]`` for a list of sections.
    Construction promotes those sections, then runs :meth:`validate`, then
    makes sure the spec writes strict JSON; a spec that loads can be sent
    and stored.  Each spec checks its own fields once: its sections did when
    they were built.  A class-level string ``kind`` that is not a field is
    written too (the registry readers dispatch on it).
    """

    NESTED: ClassVar[Mapping[str, Any]] = {}

    def __post_init__(self) -> None:
        declared = self.__dataclass_fields__
        for name, loader in self.NESTED.items():
            value = getattr(self, name)
            # None stands for "absent" only where that is the field's default.
            if not (value is None and declared[name].default is None):
                object.__setattr__(self, name, _promote(loader, value, name))
        self.validate()
        for name in _init_fields(type(self)):
            _require_strict_json(getattr(self, name), name)

    def validate(self) -> None:
        """Check the (promoted) fields; raise on what the spec cannot mean."""

    def to_dict(self) -> Dict[str, Any]:
        data = {name: _write(getattr(self, name)) for name in _init_fields(type(self))}
        kind = getattr(type(self), "kind", None)
        if isinstance(kind, str) and "kind" not in data:
            data["kind"] = kind
        return data

    @classmethod
    def from_dict(cls, data: Mapping):
        return from_strict_dict(cls, data)


def from_strict_dict(cls, data: Any, where: str = ""):
    """Build dataclass *cls* from the mapping *data*, or say what is wrong.

    Non-mappings, unknown keys and missing required keys are rejected;
    whatever the constructor (and so a nested section of a :class:`Spec`)
    rejects comes out as a :class:`SpecError` whose path starts with *where*.
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
        return cls(**data)


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
