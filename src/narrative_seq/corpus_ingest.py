"""Load occurrence reports, filter to completed investigations, and
summarize how damage labels are distributed.

Input schemas (both UTF-8):

* JSON: a top-level array of objects with fields ``report_id`` (string),
  ``narrative`` (string), ``damage_level`` (string) and
  ``investigation_complete`` (boolean).
* CSV: header row exactly
  ``report_id,narrative,damage_level,investigation_complete`` with RFC-4180
  quoting; the completion flag is ``true``/``false`` (case-insensitive).

Malformed entries are skipped and reported in the load result's warning
list. A duplicate ``report_id`` is fatal: silently deduplicating would
corrupt class distributions.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataError


class DamageLabel(IntEnum):
    """Four-way aircraft damage categorization; codes are fixed and stable."""

    DESTROYED = 0
    SUBSTANTIAL = 1
    MINOR = 2
    NO_DAMAGE = 3

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    DamageLabel.DESTROYED: "Destroyed",
    DamageLabel.SUBSTANTIAL: "Substantial",
    DamageLabel.MINOR: "Minor",
    DamageLabel.NO_DAMAGE: "None",
}

# Case-insensitive source vocabulary, including the abbreviated forms that
# appear in raw exports.
_LABEL_SYNONYMS: Mapping[str, DamageLabel] = {
    "DESTROYED": DamageLabel.DESTROYED,
    "DSTR": DamageLabel.DESTROYED,
    "SUBSTANTIAL": DamageLabel.SUBSTANTIAL,
    "SUBS": DamageLabel.SUBSTANTIAL,
    "MINOR": DamageLabel.MINOR,
    "MINR": DamageLabel.MINOR,
    "NONE": DamageLabel.NO_DAMAGE,
    "NONE REPORTED": DamageLabel.NO_DAMAGE,
}


@dataclass(frozen=True)
class OccurrenceRecord:
    """One report: identifier, raw narrative, damage label, completion flag."""

    report_id: str
    narrative: str
    damage_level: DamageLabel
    investigation_complete: bool


@dataclass(frozen=True)
class ClassDistribution:
    """Per-label record counts; ``total`` always equals their sum."""

    counts: Mapping[DamageLabel, int]
    total: int

    def to_dict(self) -> dict:
        return {
            "counts": {label.display_name: self.counts[label] for label in DamageLabel},
            "total": self.total,
        }


@dataclass
class LoadResult:
    """Records parsed from one file plus warnings for skipped entries."""

    records: list[OccurrenceRecord]
    warnings: list[str] = field(default_factory=list)


def map_damage_label(raw: str) -> DamageLabel | None:
    """Canonicalize a source damage-level string; ``None`` when unmatched.

    Matching is case-insensitive and ignores surrounding whitespace. Callers
    decide whether an unmatched string means skip or abort.
    """
    return _LABEL_SYNONYMS.get(raw.strip().upper())


def load_reports(path: str | Path, format: str) -> LoadResult:
    """Parse occurrence records from a JSON or CSV file.

    Well-formed entries come back in input order. Malformed entries (missing
    fields, wrong types, unknown damage-level strings) are skipped, one
    warning each. Unreadable files and duplicate report ids raise DataError.
    """
    path = Path(path)
    if format not in ("json", "csv"):
        raise DataError(f"unknown corpus format {format!r}; expected 'json' or 'csv'")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc

    if format == "json":
        rows = _json_rows(text, path)
    else:
        rows = _csv_rows(text, path)

    result = LoadResult(records=[])
    seen: set[str] = set()
    for position, row in rows:
        record, problem = _row_to_record(row)
        if record is None:
            result.warnings.append(f"entry {position}: {problem}")
            continue
        if record.report_id in seen:
            raise DataError(f"duplicate report_id {record.report_id!r} in {path}")
        seen.add(record.report_id)
        result.records.append(record)
    return result


def _json_rows(text: str, path: Path) -> list[tuple[int, object]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, list):
        raise DataError(f"{path}: expected a top-level JSON array of records")
    return list(enumerate(data))


def _csv_rows(text: str, path: Path) -> list[tuple[int, object]]:
    # io.StringIO keeps RFC-4180 quoted newlines inside fields intact.
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty CSV file (missing header)") from None
    expected = ["report_id", "narrative", "damage_level", "investigation_complete"]
    if header != expected:
        raise DataError(
            f"{path}: CSV header {header!r} does not match required {expected!r}"
        )
    rows: list[tuple[int, object]] = []
    for i, row in enumerate(reader):
        if len(row) != 4:
            rows.append((i, {"_malformed": f"expected 4 fields, got {len(row)}"}))
            continue
        flag = row[3].strip().lower()
        complete: object
        if flag == "true":
            complete = True
        elif flag == "false":
            complete = False
        else:
            complete = row[3]  # leaves a non-bool for _row_to_record to reject
        rows.append(
            (
                i,
                {
                    "report_id": row[0],
                    "narrative": row[1],
                    "damage_level": row[2],
                    "investigation_complete": complete,
                },
            )
        )
    return rows


def _row_to_record(row: object) -> tuple[OccurrenceRecord | None, str]:
    if not isinstance(row, dict):
        return None, f"expected an object, got {type(row).__name__}"
    if "_malformed" in row:
        return None, str(row["_malformed"])
    missing = [
        k
        for k in ("report_id", "narrative", "damage_level", "investigation_complete")
        if k not in row
    ]
    if missing:
        return None, f"missing fields {missing}"
    report_id = row["report_id"]
    narrative = row["narrative"]
    raw_label = row["damage_level"]
    complete = row["investigation_complete"]
    if not isinstance(report_id, str) or not report_id:
        return None, f"report_id must be a nonempty string, got {report_id!r}"
    if not isinstance(narrative, str):
        return None, f"narrative must be a string, got {type(narrative).__name__}"
    if not isinstance(raw_label, str):
        return None, f"damage_level must be a string, got {type(raw_label).__name__}"
    if not isinstance(complete, bool):
        return None, f"investigation_complete must be a boolean, got {complete!r}"
    label = map_damage_label(raw_label)
    if label is None:
        return None, f"unknown damage level {raw_label!r}"
    return (
        OccurrenceRecord(
            report_id=report_id,
            narrative=narrative,
            damage_level=label,
            investigation_complete=complete,
        ),
        "",
    )


def filter_completed(records: Iterable[OccurrenceRecord]) -> list[OccurrenceRecord]:
    """Keep records with a completed investigation and a nonblank narrative.

    Order is preserved; applying the filter twice equals applying it once.
    """
    return [
        r for r in records if r.investigation_complete and r.narrative.strip()
    ]


def class_distribution(records: Sequence[OccurrenceRecord]) -> ClassDistribution:
    """Exact per-label counts over ``records``."""
    counts = {label: 0 for label in DamageLabel}
    for record in records:
        counts[record.damage_level] += 1
    return ClassDistribution(counts=counts, total=len(records))
