"""Lightweight tabular reporting for the experiment harness.

The benchmark scripts and the CLI both print small result tables (one row per
parameter setting); :class:`ExperimentTable` renders them as aligned plain
text or GitHub-flavoured markdown (``python -m repro.cli run --markdown``),
so a run's table can be pasted verbatim into the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class ExperimentTable:
    """An ordered collection of result rows with fixed columns."""

    title: str
    columns: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, values: Mapping[str, object] | Iterable[object]) -> None:
        """Append one row, either as a mapping keyed by column or an ordered iterable."""
        if isinstance(values, Mapping):
            row = [_format_value(values.get(column, "")) for column in self.columns]
        else:
            items = list(values)
            if len(items) != len(self.columns):
                raise ValueError(
                    f"row has {len(items)} values, expected {len(self.columns)}"
                )
            row = [_format_value(item) for item in items]
        self.rows.append(row)

    def to_markdown(self) -> str:
        header = "| " + " | ".join(self.columns) + " |"
        separator = "|" + "|".join("---" for _ in self.columns) + "|"
        body = "\n".join("| " + " | ".join(row) + " |" for row in self.rows)
        return f"**{self.title}**\n\n{header}\n{separator}\n{body}"

    def to_text(self) -> str:
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        lines.append("  ".join(column.ljust(widths[i]) for i, column in enumerate(self.columns)))
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()
