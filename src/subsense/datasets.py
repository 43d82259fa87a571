"""Corpus ingestion, binary label conversion, splitting and synthetic data.

Per-kind input schemas (UTF-8 CSV, documented rather than auto-detected):

* ws:          columns text,label with label in {hate, noHate}
               (also accepted: "no hate", "no-hate", "no_hate")
* twitter18k:  columns text,label with label in {racism, sexism, both, neither}
* twitter42k:  columns text,label with label in {abusive, hateful, normal, spam};
               spam rows are dropped
* wiki:        columns text,toxic,severe_toxic,obscene,threat,insult,identity_hate
               with the six label columns 0/1; any 1 makes the row toxic

An optional id column is honoured everywhere; otherwise ids are generated.
Canonical output schema: id,text,label with label in {toxic, nontoxic};
``read_canonical`` reads it for ``split``, ``train`` and ``eval``; ``audit``
takes it as input too, but reads only its sha256.
"""

from __future__ import annotations

import csv
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from pathlib import Path

from . import identity, subjectivity
from .atomic import replacing
from .errors import ContractError


class Label(IntEnum):
    NONTOXIC = 0
    TOXIC = 1

    def __str__(self) -> str:
        return "toxic" if self is Label.TOXIC else "nontoxic"

    @classmethod
    def parse(cls, raw: str) -> "Label":
        label = LABELS.get(raw.strip().lower())
        if label is None:
            raise ContractError(f"unknown canonical label {raw!r}")
        return label


LABELS = {str(label): label for label in Label}  # the canonical spellings


class DatasetKind(Enum):
    WS = "ws"
    TWITTER18K = "twitter18k"
    TWITTER42K = "twitter42k"
    WIKI = "wiki"


@dataclass(frozen=True, slots=True)
class Comment:
    id: str
    text: str
    label: Label


@dataclass(frozen=True)
class ConversionResult:
    comments: tuple[Comment, ...]
    n_input: int
    n_dropped: int

    def __post_init__(self):
        if len(self.comments) + self.n_dropped != self.n_input:
            raise ContractError("conversion counts do not add up")

    @property
    def n_toxic(self) -> int:
        return sum(1 for c in self.comments if c.label is Label.TOXIC)

    @property
    def n_nontoxic(self) -> int:
        return len(self.comments) - self.n_toxic


WIKI_LABEL_COLUMNS = ("toxic", "severe_toxic", "obscene", "threat", "insult", "identity_hate")

_WS_MAP = {
    "hate": Label.TOXIC,
    "nohate": Label.NONTOXIC,
    "no hate": Label.NONTOXIC,
    "no-hate": Label.NONTOXIC,
    "no_hate": Label.NONTOXIC,
}
_T18K_MAP = {
    "racism": Label.TOXIC,
    "sexism": Label.TOXIC,
    "both": Label.TOXIC,
    "neither": Label.NONTOXIC,
}
_T42K_MAP = {
    "abusive": Label.TOXIC,
    "hateful": Label.TOXIC,
    "normal": Label.NONTOXIC,
    "spam": None,  # dropped
}


def _present(value, column: str, rownum: int) -> str:
    if value is None:
        raise ContractError(f"row {rownum}: missing column {column!r}")
    return value


def _refuse_row(label, text, rownum: int):
    """Raise the error of a row the canonical rule refuses."""
    raw = _present(label, "label", rownum)
    try:
        Label.parse(raw)
    except ContractError as exc:
        raise ContractError(f"row {rownum}: {exc}") from None
    _present(text, "text", rownum)


def _mapped_label(row: dict, mapping: dict, rownum: int):
    raw = _present(row.get("label"), "label", rownum)
    key = raw.strip().lower()
    if key not in mapping:
        raise ContractError(f"row {rownum}: unknown label {raw!r}")
    return mapping[key]


_LABEL_MAPS = {DatasetKind.WS: _WS_MAP, DatasetKind.TWITTER18K: _T18K_MAP,
               DatasetKind.TWITTER42K: _T42K_MAP}


def _wiki_label(row: dict, rownum: int) -> Label:
    for col in WIKI_LABEL_COLUMNS:
        raw = _present(row.get(col), col, rownum).strip()
        if raw not in ("0", "1"):
            raise ContractError(f"row {rownum}: column {col!r} must be 0 or 1, got {raw!r}")
        if raw == "1":
            return Label.TOXIC
    return Label.NONTOXIC


def convert(kind: DatasetKind, rows) -> ConversionResult:
    """Apply the per-kind binary label conversion.

    Rows are dicts (csv.DictReader shape). Row numbers in errors are
    1-based over the data rows. A row whose label maps to None is dropped.
    """
    comments: list[Comment] = []
    n_input = 0
    n_dropped = 0
    for idx, row in enumerate(rows, start=1):
        n_input += 1
        if kind is DatasetKind.WIKI:
            label = _wiki_label(row, idx)
        else:
            label = _mapped_label(row, _LABEL_MAPS[kind], idx)
        if label is None:
            n_dropped += 1
            continue
        text = _present(row.get("text"), "text", idx)
        cid = (row.get("id") or "").strip() or f"{kind.value}-{idx:06d}"
        comments.append(Comment(cid, text, label))
    return ConversionResult(tuple(comments), n_input, n_dropped)


@contextmanager
def _dataset_file(path):
    """The file at ``path`` opened for ``csv``; a missing file, non-UTF-8 text
    or a row ``csv`` cannot read (such as a field past its size limit) raises."""
    p = Path(path)
    if not p.exists():
        raise ContractError(f"dataset file not found: {p}")
    with open(p, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ContractError(f"dataset file {p} is not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise ContractError(f"dataset file {p} is not a readable CSV: {exc}") from None


def load_rows(path) -> list[dict]:
    with _dataset_file(path) as fh:
        return list(csv.DictReader(fh))


def read_canonical(path) -> list[Comment]:
    """The comments of a canonical CSV (columns id, text, label), each built as
    its row is read; a row's label is checked before its text, and an empty id
    becomes ``synthetic-NNNNNN``. Blank rows are skipped and not numbered, and
    a repeated column name means its last column, as with ``csv.DictReader``."""
    with _dataset_file(path) as fh:
        reader = csv.reader(fh)
        at = {name: i for i, name in enumerate(next(reader, []))}
        # A column the header lacks lies past the end of every row.
        cols = li, ti, ii = [at.get(name, sys.maxsize) for name in ("label", "text", "id")]
        last = max(cols)
        comments = []
        try:
            for n, row in enumerate(filter(None, reader), start=1):
                if len(row) > last:
                    label, text, cid = row[li], row[ti], row[ii]
                else:
                    label, text, cid = [row[i] if i < len(row) else None for i in cols]
                value = None if label is None else LABELS.get(label.strip().lower())
                if value is None or text is None:
                    _refuse_row(label, text, n)
                comments.append(Comment((cid or "").strip() or f"synthetic-{n:06d}", text, value))
            return comments
        except ContractError:
            for _ in reader:  # bad bytes later in the file are reported first
                pass
            raise


def write_canonical(comments, path) -> None:
    with replacing(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "label"])
        for c in comments:
            writer.writerow([c.id, c.text, str(c.label)])


def _largest_remainder(counts: list[int], fractions: list[float], total: int) -> list[int]:
    """Integer allocation: floor shares topped up by largest fractional part."""
    floors = [int(n * f) for n, f in zip(counts, fractions)]
    remainder = total - sum(floors)
    order = sorted(
        range(len(counts)),
        key=lambda i: (counts[i] * fractions[i]) - floors[i],
        reverse=True,
    )
    for i in order[:remainder]:
        floors[i] += 1
    return floors


def split(comments, seed: int):
    """Stratified 80/10/10 split, deterministic per seed.

    Overall sizes are floor(0.8 n) / floor(0.1 n) / remainder; each class is
    spread proportionally within one example of its exact share.
    """
    comments = list(comments)
    if len(comments) < 10:
        raise ContractError("split needs at least 10 comments")
    by_label: dict[Label, list[Comment]] = {}
    for c in comments:
        by_label.setdefault(c.label, []).append(c)
    for label, members in by_label.items():
        if len(members) < 3:
            raise ContractError(
                f"class {label} has only {len(members)} examples; need at least 3 to stratify"
            )
    n = len(comments)
    n_train, n_val = int(0.8 * n), int(0.1 * n)
    labels = sorted(by_label)
    class_sizes = [len(by_label[lab]) for lab in labels]
    train_alloc = _largest_remainder(class_sizes, [0.8] * len(labels), n_train)
    val_alloc = _largest_remainder(class_sizes, [0.1] * len(labels), n_val)

    rng = random.Random(seed)
    train: list[Comment] = []
    val: list[Comment] = []
    test: list[Comment] = []
    for lab, t_n, v_n in zip(labels, train_alloc, val_alloc):
        members = list(by_label[lab])
        rng.shuffle(members)
        train.extend(members[:t_n])
        val.extend(members[t_n : t_n + v_n])
        test.extend(members[t_n + v_n :])
    return train, val, test


# Synthetic corpus templates. None of these words are identity terms and none
# appear in a synthetic lexicon, so the planted carrier is the only
# subjectivity signal and the group slot the only identity signal.
_LEADS = (
    "the report covers", "the panel discusses", "a reader mentions",
    "the thread debates", "the article reviews", "the survey examines",
)
_MIDS = (
    "community and calls it", "group and labels it", "crowd and finds it",
    "audience and rates it", "district and deems it",
)
_TAILS = (
    "in the thread", "on the forum", "after the meeting",
    "during the review", "before the vote",
)
_NEUTRAL_NOUNS = (
    "garden", "bridge", "market", "river", "library",
    "museum", "kitchen", "valley", "orchard", "harbour",
)


@dataclass(frozen=True)
class PlantedRecord:
    score: float
    has_identity: bool


@dataclass(frozen=True)
class SynthCorpus:
    """Generated comments plus the lexicon and ground truth behind them."""

    comments: tuple[Comment, ...]
    lexicon: subjectivity.SubjectivityLexicon
    planted: dict[str, PlantedRecord] = field(repr=False)


def synth_generate(n: int, theta: float, noise: float, seed: int) -> SynthCorpus:
    """Template corpus where toxicity = identity term present AND planted
    subjectivity above theta, label-flipped with probability ``noise``.

    Every comment carries a unique carrier word holding its subjectivity in
    the corpus lexicon, so scoring the text under that lexicon returns the
    planted value exactly. Carriers occur once each and fall out of any
    vocabulary built with min_freq >= 2, which keeps the planted score out
    of the visible token sequence.
    """
    if n < 100:
        raise ContractError("synthetic corpora need n >= 100")
    if not 0.0 < theta < 1.0:
        raise ContractError("theta must be inside (0,1)")
    if not 0.0 <= noise < 0.5:
        raise ContractError("noise must be in [0, 0.5)")
    rng = random.Random(seed)
    levels = [round(0.05 * k, 2) for k in range(1, 20)]
    levels = [s for s in levels if abs(s - theta) >= 0.045]
    entries: list[subjectivity.LexiconEntry] = []
    comments: list[Comment] = []
    planted: dict[str, PlantedRecord] = {}
    for i in range(n):
        has_identity = rng.random() < 0.5
        group = rng.choice(identity.STOCK_TERMS if has_identity else _NEUTRAL_NOUNS)
        s = rng.choice(levels)
        carrier = f"opw{i:05d}"
        text = (
            f"{rng.choice(_LEADS)} the {group} {rng.choice(_MIDS)} "
            f"{carrier} {rng.choice(_TAILS)}"
        )
        rule_label = Label.TOXIC if (has_identity and s > theta) else Label.NONTOXIC
        label = rule_label
        if noise > 0 and rng.random() < noise:
            label = Label.TOXIC if rule_label is Label.NONTOXIC else Label.NONTOXIC
        cid = f"synth-{i:05d}"
        entries.append(subjectivity.LexiconEntry(carrier, s))
        comments.append(Comment(cid, text, label))
        planted[cid] = PlantedRecord(s, has_identity)
    lexicon = subjectivity.SubjectivityLexicon(entries)
    return SynthCorpus(tuple(comments), lexicon, planted)
