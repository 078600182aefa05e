"""Package exports without eager imports (PEP 562).

A package names what it re-exports in one table, ``{".submodule": names}``
(relative like a ``from`` import), and imports a submodule the first time
one of its names is asked for::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {".spec": ("CampaignSpec",)})
"""
from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Iterable, Mapping, Tuple


def lazy_exports(package: str, table: Mapping[str, Tuple[str, ...]],
                 submodules: Iterable[str] = ()):
    """``(__getattr__, __dir__, __all__)`` of *package*, exporting *table*
    and the *submodules* themselves; a value is cached on the package once
    read."""
    owners = {name: module for module, names in table.items() for name in names}
    owners.update((name, None) for name in submodules)
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # import_module, not ``from . import``: the latter re-enters this
        # __getattr__ through importlib's fromlist handling and recurses.
        module = importlib.import_module(owners[name] or f".{name}", package)
        if owners[name] is None:
            return module
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted(namespace.keys() | owners.keys())

    # A name that is also its own submodule's (``repro.core.fit``) keeps
    # naming the export: the import system binds each submodule it loads on
    # its package, and that binding is dropped for such a name.
    shadowed = {name for name, module in owners.items() if module == f".{name}"}
    if shadowed:
        class Package(ModuleType):
            def __setattr__(self, name: str, value) -> None:
                if name not in shadowed or not isinstance(value, ModuleType):
                    super().__setattr__(name, value)

        sys.modules[package].__class__ = Package
    return __getattr__, __dir__, list(owners)
