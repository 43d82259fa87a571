"""Identity-term detection: the gate signal for the augmentation slot.

Matching is case-insensitive and whole-word: a term counts only when both
neighbouring characters are absent or non-alphanumeric, so "white" does not
fire inside "whitewash".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ContractError, EmptyDatasetError, read_text

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
    """Ordered set of lowercase single-word identity terms, each starting and
    ending with a letter or digit, so that a term ``detect`` finds in a text
    is held by one of its ``word_split`` tokens."""

    terms: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for t in self.terms:
            if not t or t != t.lower() or any(c.isspace() for c in t):
                raise ContractError(f"identity term must be lowercase single word: {t!r}")
            if not (t[0].isalnum() and t[-1].isalnum()):
                raise ContractError(f"identity term must start and end with a letter or digit: "
                                    f"{t!r}")
            if t in seen:
                raise ContractError(f"duplicate identity term: {t!r}")
            seen.add(t)


@dataclass(frozen=True)
class IdentityMatch:
    """The lexicon terms a text holds, each once, in order of first
    whole-word occurrence."""

    terms: tuple[str, ...]

    @property
    def present(self) -> bool:
        return bool(self.terms)


def default_terms() -> IdentityLexicon:
    """The stock 25-term lexicon."""
    return IdentityLexicon(STOCK_TERMS)


def load_terms(path) -> IdentityLexicon:
    """Load a term list: one term per line, '#' lines ignored, lowercased."""
    terms: list[str] = []
    for line in read_text(path, "identity term file").splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#") and word not in terms:
            terms.append(word)
    try:
        return IdentityLexicon(tuple(terms))
    except ContractError as exc:
        raise ContractError(f"identity term file {path}: {exc}") from None


def _first_whole_word(text_lower: str, term: str) -> int:
    """Start of the first whole-word occurrence of ``term`` in ``text_lower``, or -1."""
    i = text_lower.find(term)
    while i >= 0:
        j = i + len(term)
        if ((i == 0 or not text_lower[i - 1].isalnum())
                and (j == len(text_lower) or not text_lower[j].isalnum())):
            return i
        i = text_lower.find(term, i + 1)
    return -1


def holds_term(word: str, terms: tuple[str, ...]) -> bool:
    """Whether a lowercase word, such as a ``word_split`` token, contains one
    of ``terms`` as a whole word by ``detect``'s rule: "muslim's" and
    "islam,jews" do, "muslimness" does not. A word of letters and digits
    alone holds a term only by being one."""
    if word in terms:
        return True
    return not word.isalnum() and any(_first_whole_word(word, t) >= 0 for t in terms)


def detect(text: str, lexicon: IdentityLexicon) -> IdentityMatch:
    """The lexicon terms that occur in ``text`` as whole words, in order of
    first occurrence."""
    lowered = text.lower()
    found = []
    for term in lexicon.terms:
        if term in lowered:  # a quick scan rules most terms out
            start = _first_whole_word(lowered, term)
            if start >= 0:
                found.append((start, start + len(term), term))
    found.sort()
    return IdentityMatch(tuple(term for _, _, term in found))


def coverage(comments, lexicon: IdentityLexicon) -> float:
    """Fraction of comments containing at least one term, to 4 decimals."""
    comments = list(comments)
    if not comments:
        raise EmptyDatasetError("coverage needs at least one comment")
    hits = sum(1 for c in comments if detect(getattr(c, "text", c), lexicon).present)
    return float(round(Fraction(hits, len(comments)), 4))
