"""Tests for the ASCII chart helpers."""

import pytest

from repro.reporting import scatter_plot, series_chart


def sparkline(values):
    """The trend ``series_chart`` draws for one series of ``values``."""
    chart = series_chart({"s": [(float(i), v) for i, v in enumerate(values)]})
    return chart[len("  s "):chart.rindex("  [")]


class TestSparkline:
    def test_monotone_rises(self):
        line = sparkline([1.0, 2.0, 3.0, 4.0])
        assert len(line) == 4
        assert line[0] < line[-1]

    def test_flat_series(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestScatterPlot:
    def test_contains_extremes(self):
        points = [(0.0, 0.0), (10.0, 1.0), (5.0, 0.5)]
        plot = scatter_plot(points, width=20, height=6)
        assert "0.00" in plot and "1.00" in plot

    def test_point_count_preserved_in_density(self):
        # A single hot cell renders darker than a single point.
        sparse = scatter_plot([(0, 0), (1, 1)], width=10, height=4)
        assert sparse.count("@") <= 2

    def test_no_points(self):
        assert "no points" in scatter_plot([])

    def test_validation(self):
        with pytest.raises(ValueError):
            scatter_plot([(0, 0)], width=1)


class TestSeriesChart:
    def test_one_line_per_series(self):
        chart = series_chart(
            {"a": [(0.0, 1.0), (1.0, 2.0)], "b": [(0.0, 3.0)]}
        )
        assert len(chart.splitlines()) == 2
        assert "[1.0 .. 2.0]" in chart

    def test_resamples_long_series(self):
        points = [(float(i), float(i % 7)) for i in range(500)]
        chart = series_chart({"x": points}, width=30)
        # Label + sparkline + range annotation fit one line.
        assert len(chart.splitlines()) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            series_chart({})
