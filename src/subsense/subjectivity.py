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

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

from .atomic import replacing
from .errors import ContractError, read_text
from .textprep import word_split

DEFAULT_LEXICON_XML = Path(__file__).parent / "data" / "en_subjectivity.xml"


@dataclass(frozen=True)
class LexiconEntry:
    """One word sense: subjectivity in [0,1], intensity > 0. The form is
    lowercase words joined by single spaces, each starting and ending with a
    letter or digit, as word tokens do: no text could match another form,
    and its TSV line might not read back."""

    form: str
    subjectivity: float
    intensity: float = field(default=1.0, kw_only=True)

    def __post_init__(self):
        words = self.form.split()
        if (self.form != self.form.lower() or self.form.split(" ") != words
                or not all(w[0].isalnum() and w[-1].isalnum() for w in words)):
            raise ContractError(f"lexicon form must be lowercase words, each starting and ending "
                                f"with a letter or digit, joined by single spaces: {self.form!r}")
        if not 0.0 <= self.subjectivity <= 1.0:
            raise ContractError(f"subjectivity out of [0,1]: {self.subjectivity}")
        if not self.intensity > 0.0:
            raise ContractError(f"intensity must be positive: {self.intensity}")


class SubjectivityLexicon:
    """Multimap from lowercase form to its senses.

    Immutable after construction and safe to share across threads.
    """

    def __init__(self, entries):
        table: dict[str, tuple[LexiconEntry, ...]] = {}
        for e in entries:
            table[e.form] = table.get(e.form, ()) + (e,)
        self._table = table
        # Per-form means over the senses, computed once for the scorer.
        self._subjectivity = {f: sum(e.subjectivity for e in s) / len(s) for f, s in table.items()}
        self._intensity = {f: sum(e.intensity for e in s) / len(s) for f, s in table.items()}
        # Every text a multi-word form continues past a space ("fed" of "fed
        # up"); a token outside this set can only match a one-word form, and
        # a token outside ``_starts`` matches nothing.
        self._heads = frozenset(f[:i] for f in table for i, ch in enumerate(f) if ch == " ")
        self._starts = self._heads.union(table)
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

    def mean_intensity(self, form: str) -> float:
        return self._intensity[form]


@dataclass(frozen=True)
class SubjectivityScore:
    """Comment-level score in [0, 1]."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ContractError(f"score out of [0,1]: {self.value}")


def _entry(attrs: dict) -> LexiconEntry | None:
    """The entry one record's attributes make, or None if they make none."""
    try:
        return LexiconEntry(
            (attrs.get("form") or "").strip().lower(),
            float(attrs["subjectivity"]),
            intensity=float(attrs.get("intensity", 1.0)),
        )
    except (KeyError, ValueError, ContractError):
        return None


def _load(path, records) -> SubjectivityLexicon:
    """The lexicon of the attribute dicts ``records(p)`` reads from the file
    ``p`` at ``path``. Records that make no valid entry are skipped; a file
    with no usable record is an error, as scoring against it would be
    degenerate."""
    p = Path(path)
    if not p.exists():
        raise ContractError(f"lexicon file not found: {p}")
    entries = [e for e in map(_entry, records(p)) if e is not None]
    if not entries:
        raise ContractError(f"lexicon file {p} contains no usable entries")
    return SubjectivityLexicon(entries)


def _xml_records(p: Path):
    try:
        root = ET.parse(p).getroot()
    except ET.ParseError as exc:
        raise ContractError(f"lexicon file {p} is not well-formed XML: {exc}") from exc
    return (el.attrib for el in root.iter("word"))


def _tsv_records(p: Path):
    for line in read_text(p, "lexicon file").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            # Column 3 is a polarity, which nothing reads.
            yield dict(zip(("form", "subjectivity", None, "intensity"), line.split("\t")))


def load_lexicon(path) -> SubjectivityLexicon:
    """Load a lexicon file: the TSV format if its name ends in ``.tsv``, the
    XML format otherwise.

    XML holds one ``<word>`` element per sense with the attributes form,
    subjectivity and optional intensity; the polarity and pos attributes of
    older files are ignored. TSV holds the columns form, subjectivity,
    polarity (ignored) and intensity, the last two optional; '#' lines are
    comments.
    """
    return _load(path, _tsv_records if str(path).endswith(".tsv") else _xml_records)


def lexicon_path(path) -> Path:
    """``path`` if given, else the packaged lexicon."""
    return Path(path or DEFAULT_LEXICON_XML)


def write_lexicon_tsv(lexicon: SubjectivityLexicon, path) -> None:
    """Write ``lexicon`` in the TSV format, with 0.0 in the polarity column
    that files of this layout carry."""
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write("# form\tsubjectivity\tpolarity\tintensity\n")
        for form in sorted(lexicon.forms):
            for e in lexicon.senses(form):
                fh.write(f"{e.form}\t{e.subjectivity!r}\t0.0\t{e.intensity!r}\n")


@cache
def default_lexicon() -> SubjectivityLexicon:
    """The packaged lexicon, loaded once."""
    return load_lexicon(DEFAULT_LEXICON_XML)


def _match_at(tokens, i: int, lexicon: SubjectivityLexicon):
    """Longest lexicon form whose words are the first word tokens at or after
    token i, as (form, width in words, index one past its last word), or None
    (also past the end). Pure-punctuation tokens before and between the words
    are stepped over where they stand."""
    n = len(tokens)
    while i < n and not tokens[i][0].isalnum():
        i += 1
    if i >= n:
        return None
    if tokens[i] not in lexicon._heads:
        return (tokens[i], 1, i + 1) if tokens[i] in lexicon._table else None
    at = [i]  # the indices of the words a form may span
    for j in range(i + 1, n):
        if len(at) == lexicon.max_form_words:
            break
        if tokens[j][0].isalnum():
            at.append(j)
    for width in range(len(at), 0, -1):
        form = " ".join([tokens[k] for k in at[:width]])
        if form in lexicon._table:
            return form, width, at[width - 1] + 1
    return None


def _hits(tokens, lexicon: SubjectivityLexicon):
    """(start, width, contribution) of each lexicon hit in ``tokens``, in order,
    by a longest-match scan of the word tokens that steps over
    pure-punctuation tokens where they stand: ``start`` indexes ``tokens``,
    ``width`` counts words. A one-word form with mean intensity != 1 that
    directly precedes another hit is that hit's modifier, not a hit of its
    own; only one modifier ever applies to a match. The scan steps only over
    forms and heads of forms, as no other token starts a match."""
    starts = lexicon._starts
    pending: float | None = None
    # A modifier's lookahead match, which is the next start's: only
    # punctuation, never a start, lies between the two.
    ahead = None
    end = 0  # first token not inside an earlier match
    for i in [i for i, tok in enumerate(tokens) if tok in starts]:
        if i < end:
            continue
        m, ahead = ahead or _match_at(tokens, i, lexicon), None
        if m is None:
            continue
        form, width, stop = m
        if width == 1 and lexicon.mean_intensity(form) != 1.0:
            ahead = _match_at(tokens, i + 1, lexicon)
            if ahead is not None:
                pending = lexicon.mean_intensity(form)
                continue
        subj = lexicon.mean_subjectivity(form)
        if pending is not None:
            subj = min(1.0, max(0.0, subj * pending))
            pending = None
        yield i, width, subj
        end = stop


def score(text: str, lexicon: SubjectivityLexicon, tokens=None) -> SubjectivityScore:
    """Mean hit contribution over the word-split, lowercased text.

    A caller that has already split ``text`` passes ``word_split(text)`` as
    ``tokens`` to skip the second split. Pure-punctuation tokens, which
    ``word_split`` emits one character each, are stepped over where they
    stand, as if absent. No matches at all gives exactly 0.0.
    """
    if tokens is None:
        tokens = word_split(text)
    if lexicon._starts.isdisjoint(tokens):  # no token starts a match
        return SubjectivityScore(0.0)
    values = [subj for _, _, subj in _hits(tokens, lexicon)]
    if not values:
        return SubjectivityScore(0.0)
    value = sum(values) / len(values)
    return SubjectivityScore(min(1.0, max(0.0, value)))
