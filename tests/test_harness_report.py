"""Tests for the benchmark harness configs and the result-table renderer."""

import pytest

from repro.bench.harness import (
    ASTRONOMY_CONFIGS,
    GENOMICS_CONFIGS,
    MICRO_CONFIGS,
    micro_overhead_table,
    micro_query_table,
    run_micro,
)
from repro.bench.report import ResultTable


class TestResultTable:
    def test_render_alignment(self):
        table = ResultTable("t", ["name", "value"])
        table.add_row("a", 1.5)
        table.add_row("bbbb", 123456.0)
        text = table.render()
        assert "== t ==" in text
        assert "123,456" in text

    def test_row_arity_checked(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_small_floats(self):
        table = ResultTable("t", ["v"])
        table.add_row(0.00123)
        assert "0.0012" in table.render()

    def test_notes(self):
        table = ResultTable("t", ["v"])
        table.add_row(1)
        table.add_note("hello")
        assert "note: hello" in table.render()


class TestConfigs:
    def test_astronomy_matches_table2(self):
        assert set(ASTRONOMY_CONFIGS) == {
            "BlackBox", "BlackBoxOpt", "FullOne", "FullMany", "SubZero",
        }
        assert ASTRONOMY_CONFIGS["BlackBox"]["map_builtins"] is False
        assert ASTRONOMY_CONFIGS["SubZero"]["udf"][0].label == "<-CompOne"

    def test_genomics_matches_table2(self):
        assert set(GENOMICS_CONFIGS) == {
            "BlackBox", "FullOne", "FullMany", "FullForw",
            "FullBoth", "PayOne", "PayMany", "PayBoth",
        }
        labels = [s.label for s in GENOMICS_CONFIGS["PayBoth"]]
        assert labels == ["<-PayOne", "->FullOne"]

    def test_micro_strategies(self):
        assert set(MICRO_CONFIGS) == {
            "<-PayMany", "<-PayOne", "<-FullMany", "<-FullOne", "->FullOne", "BlackBox",
        }
        assert MICRO_CONFIGS["BlackBox"] is None


class TestMicroHarness:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_micro(
            fanins=(1, 4),
            fanouts=(1,),
            configs=["BlackBox", "<-FullOne", "<-PayOne"],
            shape=(60, 60),
            coverage=0.05,
            query_cells=30,
            seed=0,
        )

    def test_row_schema(self, rows):
        assert len(rows) == 2 * 3
        for row in rows:
            assert {"fanin", "fanout", "strategy", "disk_mb", "runtime_s",
                    "overhead_s", "bq_s", "fq_s"} <= set(row)

    def test_blackbox_baseline_subtracted(self, rows):
        blackbox = [r for r in rows if r["strategy"] == "BlackBox"]
        assert all(r["overhead_s"] == 0 for r in blackbox)

    def test_tables_render(self, rows):
        assert "Figure 8" in micro_overhead_table(rows).render()
        fig9 = micro_query_table(rows)
        assert all(r[2] != "BlackBox" for r in fig9.rows)
