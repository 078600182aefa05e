"""One named table for everything the package resolves from a name.

Scenario runners, built-in scenarios, policy stages and compositions,
routing policies, federation topologies and fault plans are all a
:class:`Registry`: specs and campaign files only ever reference them by
name, and every table rejects duplicates, lists its names sorted and says
which names it knows when asked for one it does not.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from .errors import DuplicateNameError, UnknownNameError

__all__ = ["Registry", "unknown_name"]


def unknown_name(kind: str, name: object, known: Iterable[str]) -> UnknownNameError:
    """The one "unknown <kind> 'x'; known: [...]" error of the package."""
    return UnknownNameError(f"unknown {kind} {name!r}; known: {sorted(known)}")


class Registry:
    """A table of named values of one *kind* (the word error messages use).

    *load*, when given, registers the built-in entries; it runs once, at the
    first lookup, so a process that never looks a name up never imports them.
    """

    def __init__(self, kind: str, load: Optional[Callable[[], None]] = None):
        self.kind = kind
        self._values: Dict[str, Any] = {}
        self._descriptions: Dict[str, str] = {}
        self._load = load

    def _table(self) -> Dict[str, Any]:
        if self._load is not None:
            load, self._load = self._load, None
            load()
        return self._values

    def register(self, name: str, value: Any = None, description: str = ""):
        """Add *value* under *name*; without a value, decorate a function."""
        if value is None:
            return lambda fn: self.register(name, fn, description)
        if name in self._table():
            raise DuplicateNameError(f"{self.kind} {name!r} is already registered")
        self._values[name] = value
        self._descriptions[name] = description
        return value

    def get(self, name: str) -> Any:
        try:
            return self._table()[name]
        except (KeyError, TypeError):  # TypeError: an unhashable "name"
            raise unknown_name(self.kind, name, self._values) from None

    def names(self) -> List[str]:
        return sorted(self._table())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._table()

    def describe(self, name: str) -> str:
        """The registered description, else the value's first doc line."""
        value = self.get(name)
        text = self._descriptions[name] or (value.__doc__ or "").strip()
        return text.splitlines()[0] if text else ""
