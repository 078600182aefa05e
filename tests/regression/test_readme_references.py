"""Every module, file and name the README quotes exists.

The README is the repo's map; a path or a dotted name in it that no longer
resolves sends its reader nowhere.  Checked: every ``src/repro/...`` path,
every directory of the package tree it draws, every quoted file path with a
directory in it (against the repo root, or ``src/repro/`` for the package's
own), and every dotted ``repro.*`` name (a module, or an attribute of one).
"""
from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _paths():
    found = set(re.findall(r"src/repro/[\w./]*", README))
    found.update(f"src/repro/{d}/" for d in re.findall(r"[├└]── (\w+)/", README))
    found.update(re.findall(r"`([\w.-]+/[\w./-]+\.(?:py|md|json))`", README))
    return sorted(found)


def _resolve(name):
    """The module or attribute *name* names; raises if there is none."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:end]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[end:]:
            obj = getattr(obj, attribute)
        return obj
    raise ModuleNotFoundError(name)


@pytest.mark.parametrize("path", _paths())
def test_readme_path_exists(path):
    assert (ROOT / path).exists() or (PACKAGE / path).exists(), path


@pytest.mark.parametrize("name", sorted(set(re.findall(r"\brepro(?:\.\w+)+", README))))
def test_readme_dotted_name_resolves(name):
    _resolve(name)
