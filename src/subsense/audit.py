"""Evaluation metrics, the identity-by-outcome bias decomposition, and
multi-run aggregation.

Declared conventions, pinned so tests can be exact: quartiles use linear
interpolation between closest ranks (inclusive endpoints) and run-to-run
standard deviation is the population formula.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .datasets import Label
from .errors import ContractError

# The audit reads the features ``trainer.prepare_examples`` computed and never
# calls these. They stay bound here because ``bench/tracing.py`` wraps every
# module-level binding of a traced function, and its self-test reads these.
from .identity import detect  # noqa: F401
from .subjectivity import score  # noqa: F401

OUTCOMES = ("TP", "FP", "TN", "FN")
# The four named bias-analysis groups: outcome crossed with the identity
# side it is conventionally reported on.
NAMED_GROUPS = {
    "TPwIT": ("TP", True),
    "FPwIT": ("FP", True),
    "TNwoIT": ("TN", False),
    "FNwoIT": ("FN", False),
}


class CommentFeatures(NamedTuple):
    """What the audit reads of one comment: its subjectivity score and the
    identity terms detected in it, in order of first occurrence (empty when
    none is present)."""

    subjectivity: float
    terms: tuple[str, ...]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ContractError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


# The outcome of a (prediction, gold) pair at index 2 * pred + gold, with
# NONTOXIC 0 and TOXIC 1.
_OUTCOME_AT = ("TN", "FN", "FP", "TP")


def _outcome(pred: Label, gold: Label) -> str:
    return _OUTCOME_AT[2 * pred + gold]


def confusion(preds, golds) -> ConfusionCounts:
    """Exact counts with TOXIC as the positive class."""
    preds, golds = list(preds), list(golds)
    if len(preds) != len(golds):
        raise ContractError(f"length mismatch: {len(preds)} predictions, {len(golds)} golds")
    if not preds:
        raise ContractError("confusion needs at least one prediction")
    n = Counter(map(_outcome, preds, golds))
    return ConfusionCounts(n["TP"], n["FP"], n["TN"], n["FN"])


def f1(counts: ConfusionCounts) -> float:
    """2*tp / (2*tp + fp + fn), defined as 0 when the denominator is 0."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 0.0
    return 2.0 * counts.tp / denom


def _quantile(sorted_values, q: float) -> float:
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


@dataclass(frozen=True)
class Quartiles:
    low: float
    q1: float
    median: float
    q3: float
    high: float

    def __post_init__(self):
        if not self.low <= self.q1 <= self.median <= self.q3 <= self.high:
            raise ContractError("quartiles out of order")


def quartiles(values) -> Quartiles:
    ordered = sorted(values)
    if not ordered:
        raise ContractError("quartiles need at least one value")
    return Quartiles(
        ordered[0],
        _quantile(ordered, 0.25),
        _quantile(ordered, 0.5),
        _quantile(ordered, 0.75),
        ordered[-1],
    )


@dataclass(frozen=True)
class BiasCell:
    scores: tuple[float, ...]
    stats: Quartiles | None

    @property
    def size(self) -> int:
        return len(self.scores)


def bias_groups(preds, golds, features) -> dict[tuple[str, bool], BiasCell]:
    """Partition evaluated comments into the 8 outcome-by-identity cells,
    keyed and ordered ``OUTCOMES`` by (with, without) identity.

    ``features`` holds each comment's ``CommentFeatures``. Every comment
    lands in exactly one cell; each cell carries its members' subjectivity
    scores and their quartiles (None for an empty cell).
    """
    preds, golds, features = list(preds), list(golds), list(features)
    if not (len(preds) == len(golds) == len(features)):
        raise ContractError("predictions, golds and features must align")
    buckets: dict[tuple[str, bool], list[float]] = {
        (o, w): [] for o in OUTCOMES for w in (True, False)
    }
    for pred, gold, (subjectivity, terms) in zip(preds, golds, features):
        buckets[(_outcome(pred, gold), bool(terms))].append(subjectivity)
    return {
        key: BiasCell(tuple(vals), quartiles(vals) if vals else None)
        for key, vals in buckets.items()
    }


@dataclass(frozen=True)
class RunAggregate:
    f1_values: tuple[float, ...]
    mean_f1: float
    std_f1: float
    mean_fp: float
    mean_fn: float

    def __post_init__(self):
        if self.f1_values and not (
            min(self.f1_values) - 1e-12 <= self.mean_f1 <= max(self.f1_values) + 1e-12
        ):
            raise ContractError("mean outside the observed range")
        if self.std_f1 < 0:
            raise ContractError("standard deviation cannot be negative")


def aggregate(runs) -> RunAggregate:
    """Mean/std of F1 plus mean FP/FN over (f1, fp, fn) run triples."""
    runs = list(runs)
    if not runs:
        raise ContractError("aggregate needs at least one run")
    f1s = [r[0] for r in runs]
    mean_f1 = sum(f1s) / len(f1s)
    std_f1 = math.sqrt(sum((x - mean_f1) ** 2 for x in f1s) / len(f1s))
    mean_fp = sum(r[1] for r in runs) / len(runs)
    mean_fn = sum(r[2] for r in runs) / len(runs)
    return RunAggregate(tuple(f1s), mean_f1, std_f1, mean_fp, mean_fn)


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(header), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def render_f1_table(named_aggregates) -> str:
    """Model rows with mean F1 and population std, 4 decimals each."""
    rows = [
        [name, f"{agg.mean_f1:.4f}", f"{agg.std_f1:.4f}"]
        for name, agg in named_aggregates
    ]
    return _render_table(["Model", "F1", "std"], rows)


def render_fp_fn_table(named_aggregates) -> str:
    """Model rows with mean false positives and false negatives."""
    rows = [
        [name, f"{agg.mean_fp:.1f}", f"{agg.mean_fn:.1f}"]
        for name, agg in named_aggregates
    ]
    return _render_table(["Model", "FP", "FN"], rows)


@dataclass(frozen=True)
class ErrorRow:
    comment_id: str
    error: str  # FP or FN
    terms: tuple[str, ...]
    subjectivity: float


def error_listing(comments, preds, golds, features) -> list[ErrorRow]:
    """Sortable list of misclassified comments with matched identity terms
    and subjectivity scores (the error-table shape), read from each
    comment's ``CommentFeatures``; of the comment itself only its id."""
    rows = []
    for comment, pred, gold, (subjectivity, terms) in zip(comments, preds, golds, features):
        outcome = _outcome(pred, gold)
        if outcome in ("FP", "FN"):
            rows.append(ErrorRow(comment.id, outcome, terms, subjectivity))
    rows.sort(key=lambda r: (r.error, -r.subjectivity, r.comment_id))
    return rows


@dataclass(frozen=True)
class AuditReport:
    """Every view keeps the cell order of ``bias_groups``. The JSON view holds
    no per-comment record: ``predictions.csv`` and the test CSV hold each
    comment's facts, and only the text view lists the errors."""

    counts: ConfusionCounts
    f1: float
    cells: dict[tuple[str, bool], BiasCell]
    errors: tuple[ErrorRow, ...]

    def to_json_dict(self) -> dict:
        def cell_dict(cell: BiasCell) -> dict:
            s = cell.stats
            return {"size": cell.size} if s is None else {"size": cell.size, "quartiles": {
                "min": s.low, "q1": s.q1, "median": s.median, "q3": s.q3, "max": s.high}}
        return {
            "counts": {"tp": self.counts.tp, "fp": self.counts.fp,
                       "tn": self.counts.tn, "fn": self.counts.fn},
            "f1": self.f1,
            "cells": {f"{o}_{'with' if w else 'without'}_identity": cell_dict(cell)
                      for (o, w), cell in self.cells.items()},
            "named_groups": {
                name: {"size": self.cells[key].size} for name, key in NAMED_GROUPS.items()
            },
        }

    def to_text(self) -> str:
        lines = [
            f"examples {self.counts.total}  f1 {self.f1:.4f}  "
            f"tp {self.counts.tp}  fp {self.counts.fp}  tn {self.counts.tn}  fn {self.counts.fn}",
            "",
        ]
        header = ["cell", "n", "min", "q1", "median", "q3", "max"]
        rows = []
        for (o, w), cell in self.cells.items():
            s = cell.stats
            values = ("-",) * 5 if s is None else (
                f"{v:.4f}" for v in (s.low, s.q1, s.median, s.q3, s.high))
            rows.append([f"{o} {'with' if w else 'without'} identity", str(cell.size), *values])
        lines.append(_render_table(header, rows))
        if self.errors:
            lines += ["", "errors (sorted by kind, then subjectivity desc):"]
            lines.extend(f"  {r.error} s={r.subjectivity:.4f} terms={','.join(r.terms) or '-'} "
                         f"id={r.comment_id}" for r in self.errors)
        return "\n".join(lines) + "\n"


def audit_report(comments, preds, golds, features) -> AuditReport:
    counts = confusion(preds, golds)
    return AuditReport(
        counts,
        f1(counts),
        bias_groups(preds, golds, features),
        tuple(error_listing(comments, preds, golds, features)),
    )
