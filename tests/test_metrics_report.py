"""Unit tests for the reporting helpers."""

from repro.metrics.report import format_series, format_table


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["a", "b"], [[1, 2], [3, 4]])
        assert "a" in text and "b" in text
        assert "3" in text and "4" in text

    def test_title_is_first_line(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_floats_are_compact(self):
        text = format_table(["x"], [[1.23456789]])
        assert "1.235" in text

    def test_column_alignment(self):
        text = format_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = text.splitlines()
        assert len(lines[-1]) >= len("a-much-longer-cell")


class TestFormatSeries:
    def test_series_layout(self):
        text = format_series({"LoAS": {"vgg16": 1.0, "alexnet": 2.0}, "SparTen": {"vgg16": 0.5}})
        assert "LoAS" in text and "SparTen" in text
        assert "vgg16" in text and "alexnet" in text

    def test_missing_values_are_nan(self):
        text = format_series({"a": {"x": 1.0}, "b": {"y": 2.0}})
        assert "nan" in text
