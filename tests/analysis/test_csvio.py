"""Tests for CSV ingestion and the tycos-search CLI."""

import pytest

from repro.analysis.csvio import main, read_csv_series


@pytest.fixture
def csv_file(tmp_path, rng):
    """A CSV with a lag-3 coupled pair (a, b) and a noise column."""
    n = 300
    seg = rng.uniform(0, 1, 100)
    a = rng.uniform(0, 1, n)
    b = rng.uniform(0, 1, n)
    a[80:180] = seg
    b[83:183] = seg + 0.01 * rng.normal(size=100)
    noise = rng.uniform(0, 1, n)
    path = tmp_path / "data.csv"
    with path.open("w") as handle:
        handle.write("a,b,noise\n")
        for row in zip(a, b, noise):
            handle.write(",".join(f"{v:.6f}" for v in row) + "\n")
    return path


class TestReadCsv:
    def test_reads_all_columns(self, csv_file):
        series = read_csv_series(csv_file)
        assert set(series) == {"a", "b", "noise"}
        assert series["a"].size == 300

    def test_reads_subset(self, csv_file):
        series = read_csv_series(csv_file, columns=["b"])
        assert set(series) == {"b"}

    def test_unknown_column(self, csv_file):
        with pytest.raises(ValueError, match="unknown columns"):
            read_csv_series(csv_file, columns=["zz"])

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_csv_series(empty)

    def test_non_numeric_cell(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\nx,3.0\n")
        with pytest.raises(ValueError, match="not numeric"):
            read_csv_series(bad)

    def test_missing_cell(self, tmp_path):
        bad = tmp_path / "short_row.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="not numeric"):
            read_csv_series(bad)

    def test_trailing_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n\n  \n")
        series = read_csv_series(path)
        assert series["a"].tolist() == [1.0, 3.0]
        assert series["b"].tolist() == [2.0, 4.0]

    def test_blank_line_before_more_data_raises(self, tmp_path):
        # Dropping it would shift every later sample by one step.
        path = tmp_path / "gap.csv"
        path.write_text("a,b\n1.0,2.0\n\n3.0,4.0\n")
        with pytest.raises(ValueError, match=r"gap\.csv:3: blank line"):
            read_csv_series(path)


class TestCli:
    def test_single_pair_mode(self, csv_file, capsys):
        code = main([
            str(csv_file), "--x", "a", "--y", "b",
            "--sigma", "0.45", "--s-min", "20", "--s-max", "120",
            "--td-max", "5", "--delay-step", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "correlated windows" in out
        assert "delay=+3" in out

    def test_all_pairs_mode(self, csv_file, capsys):
        code = main([
            str(csv_file), "--all-pairs",
            "--sigma", "0.45", "--s-min", "20", "--s-max", "120",
            "--td-max", "5", "--delay-step", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "a -> b" in out

    def test_single_pair_segmented(self, csv_file, capsys):
        code = main([
            str(csv_file), "--x", "a", "--y", "b",
            "--sigma", "0.45", "--s-min", "20", "--s-max", "60",
            "--td-max", "5", "--delay-step", "1", "--plan", "segments=2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "over 2 segments" in out
        assert "delay=+3" in out

    def test_requires_pair_or_all(self, csv_file):
        with pytest.raises(SystemExit):
            main([str(csv_file)])
