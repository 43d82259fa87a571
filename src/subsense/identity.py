"""Identity-term detection: the gate signal for the augmentation slot.

Matching is case-insensitive and whole-word: a term counts only when both
neighbouring characters are absent or non-alphanumeric, so "white" does not
fire inside "whitewash".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ContractError, EmptyDatasetError, ResourceError

# The stock 25-term list, verbatim including the "democat" spelling; a
# curated variant adding "democrat" ships as data/identity_terms_curated.txt
# and is never substituted silently.
STOCK_TERMS = (
    "muslim", "jew", "jews", "white", "islam", "blacks", "muslims", "women",
    "whites", "gay", "black", "democat", "islamic", "allah", "jewish",
    "lesbian", "transgender", "race", "brown", "woman", "mexican", "religion",
    "homosexual", "homosexuality", "africans",
)

CURATED_TERMS_FILE = Path(__file__).parent / "data" / "identity_terms_curated.txt"


@dataclass(frozen=True)
class IdentityLexicon:
    """Ordered set of lowercase single-word identity terms."""

    terms: tuple[str, ...]
    source_label: str
    _term_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for t in self.terms:
            if not t or t != t.lower() or any(c.isspace() for c in t):
                raise ContractError(f"identity term must be lowercase single word: {t!r}")
            if t in seen:
                raise ContractError(f"duplicate identity term: {t!r}")
            seen.add(t)
        object.__setattr__(self, "_term_set", frozenset(seen))

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self._term_set


@dataclass(frozen=True)
class IdentityMatch:
    """Detection result; present is true exactly when matches is non-empty."""

    present: bool
    matches: tuple[tuple[str, tuple[int, int]], ...]

    def __post_init__(self):
        if self.present != bool(self.matches):
            raise ContractError("present must mirror non-empty matches")

    @property
    def terms(self) -> tuple[str, ...]:
        seen: list[str] = []
        for term, _ in self.matches:
            if term not in seen:
                seen.append(term)
        return tuple(seen)


def default_terms() -> IdentityLexicon:
    """The stock 25-term lexicon."""
    return IdentityLexicon(STOCK_TERMS, "paper-25")


def load_terms(path) -> IdentityLexicon:
    """Load a term list: one term per line, '#' lines ignored, lowercased."""
    p = Path(path)
    if not p.exists():
        raise ResourceError(f"identity term file not found: {p}")
    terms: list[str] = []
    for line in p.read_text(encoding="utf-8").splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#") and word not in terms:
            terms.append(word)
    return IdentityLexicon(tuple(terms), p.name)


def _whole_word_spans(text_lower: str, term: str) -> list[tuple[int, int]]:
    spans = []
    start = 0
    while True:
        i = text_lower.find(term, start)
        if i < 0:
            break
        j = i + len(term)
        left_ok = i == 0 or not text_lower[i - 1].isalnum()
        right_ok = j == len(text_lower) or not text_lower[j].isalnum()
        if left_ok and right_ok:
            spans.append((i, j))
        start = i + 1
    return spans


def detect(text: str, lexicon: IdentityLexicon) -> IdentityMatch:
    """Report every whole-word occurrence of any lexicon term."""
    lowered = text.lower()
    found: list[tuple[str, tuple[int, int]]] = []
    for term in lexicon.terms:
        for span in _whole_word_spans(lowered, term):
            found.append((term, span))
    found.sort(key=lambda m: (m[1][0], m[1][1], m[0]))
    return IdentityMatch(bool(found), tuple(found))


def coverage(comments, lexicon: IdentityLexicon) -> float:
    """Fraction of comments containing at least one term, to 4 decimals."""
    comments = list(comments)
    if not comments:
        raise EmptyDatasetError("coverage needs at least one comment")
    hits = sum(1 for c in comments if detect(getattr(c, "text", c), lexicon).present)
    return float(round(Fraction(hits, len(comments)), 4))
