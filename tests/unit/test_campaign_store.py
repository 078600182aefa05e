"""ResultStore: append/load, deterministic files, summaries, comparison."""
import json
import re
from types import MappingProxyType

import pytest

from repro.__main__ import main
from repro.campaign import store as store_module
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.campaign.store import ResultStore, compare, medians


def make_spec(name="camp", scenario_names=("s1", "s2"), seeds=2) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        scenarios=tuple(ScenarioSpec(name=n) for n in scenario_names),
        seeds=seeds,
    )


def make_records(scenario_names=("s1", "s2"), seeds=2, offset=0.0):
    records = []
    for name in scenario_names:
        for replicate in range(seeds):
            records.append(
                {
                    "scenario": name,
                    "replicate": replicate,
                    "seed": 1000 + replicate,
                    "runner": "amr_psa",
                    "scale": "tiny",
                    "metrics": {"value": offset + replicate, "label": name},
                }
            )
    return records


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        records = make_records()
        store.save_campaign(spec, records, meta={"workers": 2})

        assert store.load_records("camp") == records
        assert store.load_spec("camp") == spec

    def test_records_are_written_in_canonical_order(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        shuffled = list(reversed(make_records()))
        store.save_campaign(spec, shuffled, meta=None)
        loaded = store.load_records("camp")
        assert [(r["scenario"], r["replicate"]) for r in loaded] == [
            ("s1", 0), ("s1", 1), ("s2", 0), ("s2", 1),
        ]

    def test_rewrite_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        store.save_campaign(spec, make_records())
        first = store.runs_path("camp").read_bytes()
        store.save_campaign(spec, list(reversed(make_records())))
        assert store.runs_path("camp").read_bytes() == first

    def test_any_mapping_saves_as_its_dict_would(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_campaign(make_spec(), make_records())
        first = store.runs_path("camp").read_bytes()
        store.save_campaign(make_spec(), [MappingProxyType(r) for r in make_records()])
        assert store.runs_path("camp").read_bytes() == first

    def test_append_keeps_history(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = make_spec()
        store.save_campaign(spec, make_records(offset=0.0))
        store.save_campaign(spec, make_records(offset=10.0), append=True)
        records = store.load_records("camp")
        assert len(records) == 8
        assert records[0]["metrics"]["value"] == 0.0
        assert records[4]["metrics"]["value"] == 10.0

    def test_jsonl_is_strict_json(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_campaign(make_spec(), make_records())
        for line in store.runs_path("camp").read_text().splitlines():
            json.loads(line)

    def test_missing_campaign_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope"):
            ResultStore(tmp_path).load_records("nope")

    def test_a_missing_campaign_names_the_stored_ones_without_reading_them(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        store.save_campaign(make_spec("alpha"), make_records())
        store.save_campaign(make_spec("beta"), make_records())
        (tmp_path / "no-runs").mkdir()
        read, load_records = [], store.load_records
        monkeypatch.setattr(
            store, "load_records", lambda name: read.append(name) or load_records(name)
        )
        with pytest.raises(FileNotFoundError) as missing:
            store.load_records("alpah")
        assert read == ["alpah"]  # no stored campaign's rows were decoded
        assert str(missing.value) == (
            f"campaign 'alpah' has no runs at {tmp_path / 'alpah' / 'runs.jsonl'}; "
            "known campaigns: ['alpha', 'beta']"
        )

    def test_invalid_name_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "../etc", ".hidden"):
            with pytest.raises(ValueError):
                store.campaign_dir(bad)


class TestListing:
    def test_empty_root(self, tmp_path):
        assert ResultStore(tmp_path / "missing").list_campaigns() == []

    def test_listing(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_campaign(make_spec("alpha"), make_records())
        store.save_campaign(make_spec("beta", ("s3",)), make_records(("s3",)))
        infos = store.list_campaigns()
        assert [i.name for i in infos] == ["alpha", "beta"]
        assert infos[0].run_count == 4
        assert infos[0].scenarios == ("s1", "s2")
        assert infos[1].scenarios == ("s3",)


class TestSummaries:
    def test_summarize_medians_per_scenario(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_campaign(make_spec(seeds=3), make_records(seeds=3))
        summary = medians(store.load_records("camp"))
        # values are 0, 1, 2 per scenario -> median 1; strings are skipped
        assert summary["s1"] == {"value": 1.0}
        assert summary["s2"] == {"value": 1.0}

    def test_compare(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_campaign(make_spec("first"), make_records(offset=0.0))
        store.save_campaign(make_spec("second"), make_records(offset=2.0))
        rows = compare(
            medians(store.load_records("first")), medians(store.load_records("second"))
        )
        assert rows == [
            ("s1", "value", 0.5, 2.5, 2.0),
            ("s2", "value", 0.5, 2.5, 2.0),
        ]

    def test_a_report_reads_its_rows_once_and_summarises_each_scenario_once(
        self, tmp_path, monkeypatch, capsys
    ):
        """One pass: ``campaign report`` decodes ``runs.jsonl`` once, takes
        one median per scenario, and builds no policy or routing comparison
        for a campaign that ran one policy and no routing."""
        store = ResultStore(tmp_path)
        store.save_campaign(make_spec(seeds=3), make_records(seeds=3))
        reads, summaries = [], []
        load_records, median_summary = ResultStore.load_records, store_module.median_summary
        monkeypatch.setattr(
            ResultStore,
            "load_records",
            lambda self, name: reads.append(name) or load_records(self, name),
        )
        monkeypatch.setattr(
            store_module,
            "median_summary",
            lambda rows: summaries.append(len(rows)) or median_summary(rows),
        )
        assert main(["campaign", "report", "camp", "--results-dir", str(tmp_path)]) == 0
        assert reads == ["camp"]
        assert summaries == [3, 3]  # s1 and s2, three replicates each
        assert "comparison" not in capsys.readouterr().out


class TestTruncatedWrites:
    def test_truncated_trailing_line_is_skipped_with_warning(
        self, tmp_path, caplog, propagating_logs
    ):
        store = ResultStore(tmp_path)
        records = make_records()
        store.save_campaign(make_spec(), records)
        path = store.runs_path("camp")
        lines = path.read_text(encoding="utf-8").splitlines()
        # An interrupted append leaves the final record cut mid-JSON.
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines), encoding="utf-8")
        with caplog.at_level("WARNING"):
            loaded = store.load_records("camp")
        assert loaded == records[:-1]  # every intact record survives
        assert any("truncated" in message for message in caplog.messages)

    def test_blank_lines_are_ignored_silently(
        self, tmp_path, caplog, propagating_logs
    ):
        store = ResultStore(tmp_path)
        records = make_records()
        store.save_campaign(make_spec(), records)
        path = store.runs_path("camp")
        path.write_text(
            path.read_text(encoding="utf-8").replace("\n", "\n\n"),
            encoding="utf-8",
        )
        with caplog.at_level("WARNING"):
            assert store.load_records("camp") == records
        assert not caplog.records

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("blank", [False, True], ids=["dense", "blank-lines"])
    @pytest.mark.parametrize("truncated", [False, True], ids=["whole", "truncated"])
    def test_one_read_decodes_what_line_by_line_reading_did(
        self, tmp_path, caplog, propagating_logs, newline, blank, truncated
    ):
        store = ResultStore(tmp_path)
        store.save_campaign(make_spec(), make_records())
        path = store.runs_path("camp")
        lines = path.read_text(encoding="utf-8").splitlines()
        # A row written unescaped: only "\n" may end a line, not \u2028 or \x85.
        unescaped = {"scenario": "s1", "label": "a\u2028b\x85c"}
        lines.insert(1, json.dumps(unescaped, ensure_ascii=False))
        if truncated:
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
        if blank:
            lines = [part for line in lines for part in (line, "  ", "")]
        path.write_bytes(newline.join(lines).encode("utf-8"))
        # The reading load_records used before: the file iterated line by line.
        expected, bad = [], []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    if line.strip():
                        expected.append(json.loads(line))
                except json.JSONDecodeError:
                    bad.append(lineno)
        with caplog.at_level("WARNING"):
            assert store.load_records("camp") == expected
        warned = [int(re.search(r":(\d+): skipping", m).group(1)) for m in caplog.messages]
        assert warned == bad and len(bad) == int(truncated)
