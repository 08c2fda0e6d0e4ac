"""Terminal reporting: ASCII charts for the experiment harnesses."""

from repro.reporting.charts import scatter_plot, series_chart

__all__ = ["scatter_plot", "series_chart"]
