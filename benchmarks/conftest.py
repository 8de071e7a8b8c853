"""Shared benchmark infrastructure.

Every figure benchmark records its (query, strategy) cell into a
session-level :class:`FigureTable`; at session end the tables are
printed, giving the text analogue of the paper's Figures 5-14 for
side-by-side shape comparison (``tests/harness/test_paper_shapes.py``
asserts the Figure 5/7/9/11 shapes in tier-1).
"""

from __future__ import annotations

import pytest

from repro.harness.report import FigureTable

_TABLES = {}


@pytest.fixture(scope="session")
def figure_tables():
    return _TABLES


def pytest_sessionfinish(session, exitstatus):
    if not _TABLES:
        return
    print("\n")
    print("=" * 72)
    print("Reproduced figure tables (paper shapes: each bench's docstring;"
          " asserted in tests/harness/test_paper_shapes.py)")
    print("=" * 72)
    for key in sorted(_TABLES):
        print()
        print(_TABLES[key].render())

    # Optional machine-readable dump: REPRO_EXPORT_DIR=/path [REPRO_EXPORT_FMT=csv|md|json]
    import os
    directory = os.environ.get("REPRO_EXPORT_DIR")
    if directory:
        from repro.harness.export import export_all
        fmt = os.environ.get("REPRO_EXPORT_FMT", "csv")
        written = export_all(_TABLES, directory, fmt=fmt)
        print("\nexported %d figure tables to %s" % (len(written), directory))
