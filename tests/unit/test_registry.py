"""Unit tests of the generic name table and the strict spec loader."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

import pytest

from repro.core.errors import (
    DuplicateNameError,
    ReproError,
    SpecError,
    UnknownNameError,
)
from repro.core.registry import Registry, unknown_name
from repro.core.serde import Spec, from_strict_dict, located, read_json


class TestRegistry:
    def make(self) -> Registry:
        table = Registry("widget")
        table.register("b", 2)
        table.register("a", 1, description="the first widget\nsecond line")
        return table

    def test_get_names_and_contains(self):
        table = self.make()
        assert table.get("a") == 1
        assert table.names() == ["a", "b"]
        assert "a" in table and "z" not in table and 5 not in table

    def test_duplicate_rejected(self):
        table = self.make()
        with pytest.raises(DuplicateNameError, match="widget 'a' is already registered"):
            table.register("a", 3)
        assert isinstance(DuplicateNameError("x"), (ReproError, ValueError))
        assert table.get("a") == 1

    def test_unknown_lists_the_known_names_sorted(self):
        with pytest.raises(UnknownNameError) as caught:
            self.make().get("z")
        assert str(caught.value) == "unknown widget 'z'; known: ['a', 'b']"

    def test_unknown_is_both_a_repro_error_and_a_key_error(self):
        exc = unknown_name("widget", "z", ["b", "a"])
        assert isinstance(exc, ReproError) and isinstance(exc, KeyError)
        # KeyError would print its argument's repr; the CLI prints str(exc).
        assert not str(exc).startswith(("'", '"'))
        assert str(exc) == "unknown widget 'z'; known: ['a', 'b']"

    def test_unhashable_name_is_unknown_not_a_type_error(self):
        with pytest.raises(UnknownNameError):
            self.make().get(["a"])

    def test_decorator_form_returns_the_function(self):
        table = Registry("runner")

        @table.register("f")
        def f():
            """Does f things.

            At length.
            """

        assert table.get("f") is f
        assert f.__name__ == "f"

    def test_describe_prefers_the_registered_description(self):
        assert self.make().describe("a") == "the first widget"

    def test_describe_falls_back_to_the_first_doc_line(self):
        table = Registry("thing")

        class Thing:
            """A documented thing.

            With details nobody lists.
            """

        table.register("thing", Thing)
        table.register("bare", object())
        assert table.describe("thing") == "A documented thing."
        assert table.describe("bare") == (object.__doc__ or "").splitlines()[0]
        with pytest.raises(UnknownNameError):
            table.describe("nope")

    def test_every_package_table_is_a_registry(self):
        from repro.campaign.registry import RUNNERS, SCENARIOS
        from repro.faults.plan import FAULT_PLANS
        from repro.federation import ROUTINGS, TOPOLOGIES
        from repro.policies import BACKFILLS, ORDERINGS, POLICIES, SHARINGS

        tables = (
            RUNNERS, SCENARIOS, ORDERINGS, BACKFILLS, SHARINGS, POLICIES,
            ROUTINGS, TOPOLOGIES, FAULT_PLANS,
        )
        assert all(isinstance(t, Registry) and t.names() for t in tables)
        assert len({t.kind for t in tables}) == len(tables)

    def test_every_registered_policy_builds(self):
        from repro.policies import POLICIES, get_policy

        for name in POLICIES.names():
            assert get_policy(name).name == name


@dataclass(frozen=True)
class Leaf(Spec):
    size: int
    label: str = ""

    def validate(self):
        if self.size < 0:
            raise ValueError("size must be >= 0")


@dataclass(frozen=True)
class Tree(Spec):
    name: str
    root: Optional[Leaf] = None
    leaves: Tuple[Leaf, ...] = ()
    tags: Tuple[str, ...] = field(default_factory=tuple)

    NESTED = {"root": Leaf, "leaves": [Leaf]}


class TestStrictLoader:
    def test_builds_nested_sections(self):
        tree = Tree.from_dict(
            {"name": "t", "root": {"size": 1}, "leaves": [{"size": 2}, Leaf(3)]}
        )
        assert tree == Tree("t", Leaf(1), (Leaf(2), Leaf(3)))
        assert Tree.from_dict({"name": "t", "root": None}).root is None

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1], "Tree must be a JSON object, got list"),
            ({"name": "t", "colour": 1}, r"Tree does not understand field\(s\): \['colour'\]"),
            ({}, r"Tree needs field\(s\): \['name'\]"),
            ({"name": "t", "root": {"size": -1}}, "root: size must be >= 0"),
            ({"name": "t", "root": [1]}, "root: Leaf must be a JSON object, got list"),
            ({"name": "t", "leaves": {"size": 1}}, "leaves: must be a list, got dict"),
            ({"name": "t", "leaves": [{"size": 1}, {}]}, r"leaves\[1\]: Leaf needs"),
            ({"name": "t", "leaves": [{"size": "x"}]}, r"leaves\[0\]: .*not supported"),
        ],
    )
    def test_rejections_are_spec_errors_with_a_path(self, data, message):
        with pytest.raises(SpecError, match=message) as caught:
            Tree.from_dict(data)
        assert isinstance(caught.value, (ReproError, ValueError))

    def test_where_prefixes_and_paths_compose(self):
        with pytest.raises(SpecError) as caught:
            with located("forest[2]"):
                from_strict_dict(Tree, {"name": "t", "leaves": [{}]}, where="tree")
        assert caught.value.path == "forest[2].tree.leaves[0]"
        assert str(caught.value).startswith("forest[2].tree.leaves[0]: Leaf needs")

    def test_read_json_names_the_file(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"name": "t", "leaves": [{"size": -2}]}))
        assert read_json(good) == {"name": "t", "leaves": [{"size": -2}]}
        with pytest.raises(SpecError, match=r"good\.json: leaves\[0\]: size must be"):
            read_json(good, Tree.from_dict)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SpecError, match=r"bad\.json: Expecting property name"):
            read_json(bad)
        with pytest.raises(SpecError, match=r"missing\.json: No such file"):
            read_json(tmp_path / "missing.json")
