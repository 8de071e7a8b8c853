"""Figure tables: the text analogue of the paper's bar charts.

Each benchmark collects one value per (query, strategy) cell and prints
a table whose rows/series correspond to the paper's figure, so paper
shape vs. measured shape can be compared side by side
(``tests/harness/test_paper_shapes.py`` asserts the comparison)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence


class FigureTable:
    """An ordered (query x strategy) grid of one metric."""

    def __init__(
        self,
        title: str,
        queries: Sequence[str],
        strategies: Sequence[str],
        metric: str,
        unit: str,
    ):
        self.title = title
        self.queries = list(queries)
        self.strategies = list(strategies)
        self.metric = metric
        self.unit = unit
        self._cells: Dict[tuple, float] = {}

    def add(self, qid: str, strategy: str, value: float) -> None:
        self._cells[(qid, strategy)] = value

    def value(self, qid: str, strategy: str) -> Optional[float]:
        return self._cells.get((qid, strategy))

    @property
    def complete(self) -> bool:
        return all(
            (q, s) in self._cells
            for q in self.queries for s in self.strategies
        )

    def render(self) -> str:
        """Aligned text table; '-' marks cells not collected."""
        width = max(12, max((len(s) for s in self.strategies), default=0) + 2)
        lines = [
            "%s  [%s, %s]" % (self.title, self.metric, self.unit),
            "-" * (8 + width * len(self.strategies)),
        ]
        header = "%-8s" % "query"
        for s in self.strategies:
            header += ("%%%ds" % width) % s
        lines.append(header)
        for q in self.queries:
            row = "%-8s" % q
            for s in self.strategies:
                v = self._cells.get((q, s))
                row += ("%%%ds" % width) % (
                    "-" if v is None else "%.4f" % v
                )
            lines.append(row)
        return "\n".join(lines)

    def winners(self) -> Dict[str, str]:
        """Per query, the strategy with the lowest metric value."""
        out = {}
        for q in self.queries:
            candidates = [
                (self._cells[(q, s)], s)
                for s in self.strategies
                if (q, s) in self._cells
            ]
            if candidates:
                out[q] = min(candidates)[1]
        return out
