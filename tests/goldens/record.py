"""Record the goldens the equivalence suites check against.

    PYTHONPATH=src python -m tests.goldens.record [--out DIR]

Runs every cell the golden-checked test modules declare (each module's
``golden_cells()``) once and writes one JSON file per suite —
``engine.json``, ``partition.json``, ``bloom.json`` — with sorted keys,
one cell per line group, so a regenerated golden diffs cell by cell.
A regenerated golden is a behaviour change: name the moved cells and
why in the change that commits it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import Dict

from tests.goldens import GOLDEN_DIR, SUITES

#: The modules whose ``golden_cells()`` the goldens are recorded from.
MODULES = (
    "tests.exec.test_batch_equivalence",
    "tests.distributed.test_partition_equivalence",
    "tests.storage.test_spill_execution",
    "tests.summaries.test_bloom",
)


def collect() -> Dict[str, Dict[str, Dict]]:
    cells: Dict[str, Dict[str, Dict]] = {suite: {} for suite in SUITES}
    for name in MODULES:
        for suite, key, record in importlib.import_module(name).golden_cells():
            if key in cells[suite]:
                raise ValueError("duplicate %s cell %r" % (suite, key))
            cells[suite][key] = record()
    return cells


def dumps(cells: Dict[str, Dict]) -> str:
    """JSON with one cell per line group and one field per line."""
    compact = dict(separators=(",", ":"), sort_keys=True)
    groups = []
    for key in sorted(cells):
        fields = cells[key]
        body = ",\n".join(
            "  %s: %s" % (json.dumps(name), json.dumps(fields[name], **compact))
            for name in sorted(fields)
        )
        groups.append(" %s: {\n%s\n }" % (json.dumps(key), body))
    return "{\n%s\n}\n" % ",\n".join(groups)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--out", type=Path, default=GOLDEN_DIR,
        help="directory to write the JSON files to (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for suite, cells in collect().items():
        path = args.out / ("%s.json" % suite)
        path.write_text(dumps(cells))
        print("%s: %d cells" % (path, len(cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
