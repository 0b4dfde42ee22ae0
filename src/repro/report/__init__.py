"""Reporting: text renderers and paper-vs-measured comparison.

* :mod:`repro.report.tables`  — monospace renderers for every table;
* :mod:`repro.report.figures` — bar/matrix renderers for the figures;
* :mod:`repro.report.paper`   — the published numbers, transcribed;
* :mod:`repro.report.compare` — shape checks of measured vs published.
"""

from repro.report.tables import (
    render_table,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.report.figures import render_figure1, render_figure2
from repro.report.paper import (
    PAPER_FIG2_RATIOS,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
)
from repro.report.compare import ShapeCheck, check_campaign_shape, render_checks

__all__ = [
    "render_table",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_figure1",
    "render_figure2",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_FIG2_RATIOS",
    "ShapeCheck",
    "check_campaign_shape",
    "render_checks",
]
