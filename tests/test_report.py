"""Tests for the one-shot markdown report generator."""

import pytest

from repro.experiments.report import ALL_SECTIONS, generate_report, write_report
from tests.conftest import assert_verified


class TestGenerateReport:
    def test_rejects_unknown_sections(self):
        with pytest.raises(ValueError):
            generate_report(sections=["figure99"])

    def test_table1_only(self):
        text = generate_report("smoke", sections=["table1"])
        assert "# CT-R-tree reproduction report" in text
        assert "## Table 1" in text
        assert "lambda_u" in text
        assert "## Figure 8" not in text

    def test_single_figure_section(self):
        text = generate_report("smoke", sections=["figure11"])
        assert "## Figure 11" in text
        assert "lazy-R-tree" in text
        assert text.count("```") % 2 == 0  # balanced code fences

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "sub" / "report.md", "smoke", sections=["table1"])
        assert path.exists()
        assert path.read_text().startswith("# CT-R-tree reproduction report")

    def test_all_sections_constant_is_complete(self):
        assert set(ALL_SECTIONS) == {
            "table1",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "figure12",
            "figure13",
            "ablations",
        }


class TestReportCLI:
    def test_cli_report_table1(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        assert main(["report", "-o", str(out), "--sections", "table1"]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_cli_build_save_snapshot(self, tmp_path):
        from repro.cli import main
        from repro.storage.snapshot import load_index

        trace = tmp_path / "t.csv"
        main(["simulate", str(trace), "--objects", "40", "--history", "20",
              "--updates", "2", "--buildings", "8", "--seed", "1"])
        snap = tmp_path / "index.json"
        assert main(["build", str(trace), "--history", "20", "--save", str(snap)]) == 0
        tree = load_index(snap)
        assert len(tree) == 40
        assert_verified(tree)
