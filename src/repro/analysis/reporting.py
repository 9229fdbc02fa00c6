"""Lightweight tabular reporting for the experiment harness.

Every experiment records what it measures in one :class:`ExperimentTable`
(one row per parameter setting): each row holds raw values under the
table's column keys, ``tests/experiments/test_claims.py`` asserts the
paper's claims on those rows, and the CLI prints the same table, formatting
the values only then, as aligned plain text or GitHub-flavoured markdown
(``python -m repro.cli run --markdown``), so a run's table can be pasted
verbatim into the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


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
    """Rows of raw values under fixed columns.

    ``columns`` maps each row key to its printed header, in column order.
    """

    title: str
    columns: Mapping[str, str]
    rows: list[dict[str, object]] = field(default_factory=list, init=False)

    def add_row(self, **values: object) -> None:
        """Append one row; its keys must be exactly the columns."""
        if values.keys() != self.columns.keys():
            missing = [key for key in self.columns if key not in values]
            extra = [key for key in values if key not in self.columns]
            raise ValueError(f"row keys differ from the columns: missing {missing}, extra {extra}")
        self.rows.append(values)

    def _formatted_rows(self) -> list[list[str]]:
        return [[_format_value(row[key]) for key in self.columns] for row in self.rows]

    def to_markdown(self) -> str:
        headers = self.columns.values()
        header = "| " + " | ".join(headers) + " |"
        separator = "|" + "|".join("---" for _ in headers) + "|"
        body = "\n".join("| " + " | ".join(row) + " |" for row in self._formatted_rows())
        return f"**{self.title}**\n\n{header}\n{separator}\n{body}"

    def to_text(self) -> str:
        headers = list(self.columns.values())
        rows = self._formatted_rows()
        widths = [len(header) for header in headers]
        for row in rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
        lines.append("  ".join("-" * width for width in widths))
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


def quantity_table(
    title: str, labels: Mapping[str, str], values: Mapping[str, object]
) -> ExperimentTable:
    """A quantity/value table: one row per key of ``labels``, in its order.

    ``labels`` maps each key of ``values`` to the quantity's printed name.
    """
    if labels.keys() != values.keys():
        raise ValueError(f"labels {list(labels)} do not match values {list(values)}")
    table = ExperimentTable(title, {"quantity": "quantity", "value": "value"})
    for key, label in labels.items():
        table.add_row(quantity=label, value=values[key])
    return table
