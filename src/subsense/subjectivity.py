"""Lexicon-based subjectivity scoring of raw comment text.

A comment's subjectivity is the arithmetic mean of per-match contributions
from a word-sense lexicon: 0.0 reads as fully objective, 1.0 as fully
opinionated. Matching is a longest-match left-to-right scan; a match whose
immediately preceding token is a lexicon entry with intensity other than 1
absorbs that token as a modifier and has its contribution multiplied by the
modifier's intensity, clamped back into [0, 1]. Text with no lexicon hit
scores exactly 0.0.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .errors import ContractError, EmptyLexiconError, ResourceError
from .textprep import word_split

ENV_LEXICON = "SUBSENSE_LEXICON"
_DATA_DIR = Path(__file__).parent / "data"
DEFAULT_LEXICON_XML = _DATA_DIR / "en_subjectivity.xml"
DEFAULT_NEGATIONS = _DATA_DIR / "en_negations.txt"


@dataclass(frozen=True)
class LexiconEntry:
    """One word sense: subjectivity in [0,1], polarity in [-1,1], intensity > 0."""

    form: str
    subjectivity: float
    polarity: float = 0.0
    intensity: float = 1.0
    pos_tag: str | None = None

    def __post_init__(self):
        if not self.form or self.form != self.form.lower():
            raise ContractError(f"lexicon form must be non-empty lowercase: {self.form!r}")
        if not 0.0 <= self.subjectivity <= 1.0:
            raise ContractError(f"subjectivity out of [0,1]: {self.subjectivity}")
        if not -1.0 <= self.polarity <= 1.0:
            raise ContractError(f"polarity out of [-1,1]: {self.polarity}")
        if not self.intensity > 0.0:
            raise ContractError(f"intensity must be positive: {self.intensity}")


class SubjectivityLexicon:
    """Multimap from lowercase form to its senses, plus a negation word set.

    Immutable after construction and safe to share across threads.
    """

    def __init__(self, entries, negations=(), skipped: int = 0):
        table: dict[str, tuple[LexiconEntry, ...]] = {}
        for e in entries:
            table[e.form] = table.get(e.form, ()) + (e,)
        self._table = table
        # Per-form means over the senses, computed once for the scorer.
        self._subjectivity = {f: sum(e.subjectivity for e in s) / len(s) for f, s in table.items()}
        self._polarity = {f: sum(e.polarity for e in s) / len(s) for f, s in table.items()}
        self._intensity = {f: sum(e.intensity for e in s) / len(s) for f, s in table.items()}
        # Every text a multi-word form continues past a space ("fed" of "fed
        # up"); a token outside this set can only match a one-word form.
        self._heads = frozenset(f[:i] for f in table for i, ch in enumerate(f) if ch == " ")
        self.negations = frozenset(w.lower() for w in negations)
        self.skipped = skipped
        self.max_form_words = max((f.count(" ") + 1 for f in table), default=1)

    def __len__(self) -> int:
        return sum(len(v) for v in self._table.values())

    def __contains__(self, form: str) -> bool:
        return form in self._table

    @property
    def forms(self):
        return self._table.keys()

    def senses(self, form: str) -> tuple[LexiconEntry, ...]:
        return self._table.get(form, ())

    def mean_subjectivity(self, form: str) -> float:
        return self._subjectivity[form]

    def mean_polarity(self, form: str) -> float:
        return self._polarity[form]

    def mean_intensity(self, form: str) -> float:
        return self._intensity[form]


@dataclass(frozen=True)
class SubjectivityScore:
    """Comment-level score with the number of lexicon matches behind it."""

    value: float
    matched_count: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ContractError(f"score out of [0,1]: {self.value}")
        if self.matched_count < 0:
            raise ContractError("matched_count must be non-negative")
        if self.matched_count == 0 and self.value != 0.0:
            raise ContractError("zero matches must score 0.0")


@dataclass(frozen=True)
class Assessment:
    """One lexicon hit: token span [start, end) and its contributions."""

    start: int
    end: int
    words: tuple[str, ...]
    subjectivity: float
    polarity: float


def _parse_word_attrs(attrs: dict) -> LexiconEntry | None:
    form = (attrs.get("form") or "").strip().lower()
    if not form:
        return None
    try:
        subjectivity = float(attrs["subjectivity"])
        polarity = float(attrs.get("polarity", 0.0))
        intensity = float(attrs.get("intensity", 1.0))
    except (KeyError, ValueError):
        return None
    try:
        return LexiconEntry(form, subjectivity, polarity, intensity, attrs.get("pos"))
    except ContractError:
        return None


def load_negations(path) -> frozenset[str]:
    p = Path(path)
    if not p.exists():
        raise ResourceError(f"negation file not found: {p}")
    words = []
    for line in p.read_text(encoding="utf-8").splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.append(line)
    return frozenset(words)


def load_lexicon(path, negations_path=None) -> SubjectivityLexicon:
    """Load the XML lexicon format: one ``<word>`` element per sense.

    Recognised attributes: form, pos (optional), polarity, subjectivity,
    intensity. Records with missing/invalid attributes are skipped and
    counted on the returned lexicon. A file with zero usable records is an
    error because scoring against it would be degenerate.
    """
    p = Path(path)
    if not p.exists():
        raise ResourceError(f"lexicon file not found: {p}")
    try:
        root = ET.parse(p).getroot()
    except ET.ParseError as exc:
        raise ResourceError(f"lexicon file {p} is not well-formed XML: {exc}") from exc
    entries: list[LexiconEntry] = []
    skipped = 0
    for el in root.iter("word"):
        entry = _parse_word_attrs(el.attrib)
        if entry is None:
            skipped += 1
        else:
            entries.append(entry)
    if not entries:
        raise EmptyLexiconError(f"lexicon file {p} contains no usable entries")
    negations = load_negations(negations_path) if negations_path else frozenset()
    return SubjectivityLexicon(entries, negations, skipped)


def load_lexicon_tsv(path, negations_path=None) -> SubjectivityLexicon:
    """Plain-TSV loader: columns form, subjectivity, polarity, intensity.

    Polarity and intensity columns are optional. '#' lines are comments.
    """
    p = Path(path)
    if not p.exists():
        raise ResourceError(f"lexicon file not found: {p}")
    entries: list[LexiconEntry] = []
    skipped = 0
    for line in p.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.rstrip("\n").split("\t")
        attrs = {"form": cols[0]}
        if len(cols) > 1:
            attrs["subjectivity"] = cols[1]
        if len(cols) > 2:
            attrs["polarity"] = cols[2]
        if len(cols) > 3:
            attrs["intensity"] = cols[3]
        entry = _parse_word_attrs(attrs)
        if entry is None:
            skipped += 1
        else:
            entries.append(entry)
    if not entries:
        raise EmptyLexiconError(f"lexicon file {p} contains no usable entries")
    negations = load_negations(negations_path) if negations_path else frozenset()
    return SubjectivityLexicon(entries, negations, skipped)


def write_lexicon_tsv(lexicon: SubjectivityLexicon, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# form\tsubjectivity\tpolarity\tintensity\n")
        for form in sorted(lexicon.forms):
            for e in lexicon.senses(form):
                fh.write(f"{e.form}\t{e.subjectivity!r}\t{e.polarity!r}\t{e.intensity!r}\n")


@lru_cache(maxsize=4)
def _cached_lexicon(xml_path: str, neg_path: str | None) -> SubjectivityLexicon:
    if xml_path.endswith(".tsv"):
        return load_lexicon_tsv(xml_path, neg_path)
    return load_lexicon(xml_path, neg_path)


def default_lexicon() -> SubjectivityLexicon:
    """The packaged reference lexicon, overridable via SUBSENSE_LEXICON."""
    override = os.environ.get(ENV_LEXICON)
    if override:
        sibling = Path(override).with_name("en_negations.txt")
        return _cached_lexicon(override, str(sibling) if sibling.exists() else None)
    return _cached_lexicon(str(DEFAULT_LEXICON_XML), str(DEFAULT_NEGATIONS))


def _match_at(tokens, i: int, lexicon: SubjectivityLexicon):
    """Longest lexicon form starting at token i, or None (also past the end)."""
    if i >= len(tokens):
        return None
    if tokens[i] not in lexicon._heads:
        return (tokens[i], 1) if tokens[i] in lexicon._table else None
    limit = min(lexicon.max_form_words, len(tokens) - i)
    for width in range(limit, 0, -1):
        form = " ".join(tokens[i : i + width])
        if form in lexicon:
            return form, width
    return None


def assess(tokens, lexicon: SubjectivityLexicon) -> list[Assessment]:
    """Longest-match scan producing one assessment per lexicon hit.

    A single-token entry with mean intensity != 1 that directly precedes
    another hit is consumed as that hit's modifier instead of producing its
    own assessment; only one modifier ever applies to a match. Negation
    words flip the polarity of the following match and leave subjectivity
    untouched.
    """
    tokens = list(tokens)
    out: list[Assessment] = []
    pending: float | None = None
    i = 0
    while i < len(tokens):
        m = _match_at(tokens, i, lexicon)
        if m is None:
            pending = None
            i += 1
            continue
        form, width = m
        if (
            width == 1
            and lexicon.mean_intensity(form) != 1.0
            and _match_at(tokens, i + 1, lexicon) is not None
        ):
            pending = lexicon.mean_intensity(form)
            i += 1
            continue
        subj = lexicon.mean_subjectivity(form)
        pol = lexicon.mean_polarity(form)
        neg_idx = i - 1 if pending is None else i - 2
        if pending is not None:
            subj = min(1.0, max(0.0, subj * pending))
            pol = min(1.0, max(-1.0, pol * pending))
        if neg_idx >= 0 and tokens[neg_idx] in lexicon.negations:
            pol = -pol
        out.append(Assessment(i, i + width, tuple(tokens[i : i + width]), subj, pol))
        pending = None
        i += width
    return out


def score(text: str, lexicon: SubjectivityLexicon, tokens=None) -> SubjectivityScore:
    """Mean assessment contribution over the word-split, lowercased text.

    A caller that has already split ``text`` passes ``word_split(text)`` as
    ``tokens`` to skip the second split. Pure-punctuation tokens, which
    ``word_split`` emits one character each, are dropped before matching.
    No matches at all gives exactly 0.0.
    """
    if tokens is None:
        tokens = word_split(text)
    assessments = assess([t for t in tokens if t[0].isalnum()], lexicon)
    if not assessments:
        return SubjectivityScore(0.0, 0)
    value = sum(a.subjectivity for a in assessments) / len(assessments)
    return SubjectivityScore(min(1.0, max(0.0, value)), len(assessments))
