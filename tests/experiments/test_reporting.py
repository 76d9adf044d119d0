"""Tests for the text reporting helpers."""

import pytest

from repro.reporting import check, format_series, format_table, title


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "v"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "long-name" in lines[3]

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="columns"):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestSmallHelpers:
    def test_check(self):
        assert check(True) == "Y"
        assert check(False) == "x"

    def test_title_boxed(self):
        boxed = title("Hello")
        lines = boxed.splitlines()
        assert lines[0] == "=====" and lines[2] == "====="

    def test_format_series(self):
        out = format_series("s", [1, 2], ["a", "b"])
        assert out == "s: 1:a, 2:b"
