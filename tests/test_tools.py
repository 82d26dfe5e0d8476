"""Tests for the repository tools (results comparison, API doc generation)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import compare_results  # noqa: E402
import gen_api_docs  # noqa: E402


SAMPLE_A = """
Fig. 9: reuse cache vs NCID (paper gains)
config              RC     NCID   RC gain
------------------  -----  -----  -------
8/4                 1.151  0.976  +17.4%
8/2                 1.101  0.932  +16.9%
"""

SAMPLE_B = """
Fig. 9: reuse cache vs NCID (paper gains)
config              RC     NCID   RC gain
------------------  -----  -----  -------
8/4                 1.150  0.975  +17.5%
8/2                 1.300  0.932  +16.9%
"""


class TestParse:
    def test_rows_keyed_by_section_and_label(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text(SAMPLE_A)
        rows = compare_results.parse_results(f)
        assert ("Fig. 9", "8/4") in rows
        assert rows[("Fig. 9", "8/4")][0] == 1.151

    def test_separators_skipped(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text(SAMPLE_A)
        for (_, label) in compare_results.parse_results(f):
            assert not set(label) <= {"-"}


class TestCompare:
    def test_detects_drift(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(SAMPLE_A)
        b.write_text(SAMPLE_B)
        drifted = list(
            compare_results.compare(
                compare_results.parse_results(a),
                compare_results.parse_results(b),
                tol=0.02,
            )
        )
        labels = {key[1] for key, *_ in drifted}
        assert "8/2" in labels  # 1.101 -> 1.300 is ~18%
        assert "8/4" not in labels  # sub-tolerance noise

    def test_main_exit_codes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text(SAMPLE_A)
        b.write_text(SAMPLE_A)
        assert compare_results.main([str(a), str(b)]) == 0
        b.write_text(SAMPLE_B)
        assert compare_results.main([str(a), str(b)]) == 1
        assert "drift" in capsys.readouterr().out


class TestApiDocs:
    def test_committed_api_docs_are_current(self, capsys):
        assert gen_api_docs.main(["--check"]) == 0

    def test_check_flags_a_stale_file_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        stale = tmp_path / "api.md"
        stale.write_text("# API reference\n")
        monkeypatch.setattr(gen_api_docs, "TARGET", stale)
        assert gen_api_docs.main(["--check"]) == 1
        assert "stale" in capsys.readouterr().err
        assert stale.read_text() == "# API reference\n"
        assert gen_api_docs.main([]) == 0
        assert gen_api_docs.main(["--check"]) == 0
