"""Identity-term detection: the gate signal for the augmentation slot.

Matching is case-insensitive and whole-word: a term counts only when both
neighbouring characters are absent or non-alphanumeric, so "white" does not
fire inside "whitewash". As no term starts or ends with anything but a letter
or digit, every match lies inside one ``word_split`` token, and ``detect``
reads the tokens: a token of letters and digits alone holds a term only by
being one, and only a token with inner punctuation ("muslim's") is scanned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ContractError, read_text
from .textprep import word_split

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
    term_set: frozenset[str] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "term_set", frozenset(seen))


@dataclass(frozen=True)
class IdentityMatch:
    """The lexicon terms a text holds, each once, in order of first
    whole-word occurrence, and the indices of the ``word_split`` tokens that
    hold them, ascending and each once."""

    terms: tuple[str, ...]
    holders: tuple[int, ...]

    @property
    def present(self) -> bool:
        return bool(self.terms)


def default_terms() -> IdentityLexicon:
    """The stock 25-term lexicon."""
    return IdentityLexicon(STOCK_TERMS)


def load_terms(path) -> IdentityLexicon:
    """Load a term list: one term per line, '#' lines ignored, lowercased.
    A file with no term is an error, as its gate would never open."""
    terms: list[str] = []
    for line in read_text(path, "identity term file").splitlines():
        word = line.strip().lower()
        if word and not word.startswith("#") and word not in terms:
            terms.append(word)
    if not terms:
        raise ContractError(f"identity term file {path} contains no terms")
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


def _holdings(tokens, lexicon: IdentityLexicon):
    """(token index, start, term) for each lexicon term that a lowercase token
    holds as a whole word, token by token. A token of letters and digits
    alone holds a term only by being one (a set lookup), and only a token
    with inner punctuation ("muslim's") is searched."""
    for i, tok in enumerate(tokens):
        if tok.isalnum():
            if tok in lexicon.term_set:
                yield i, 0, tok
        elif len(tok) > 1:  # one character of punctuation holds no term
            for term in lexicon.terms:
                if term in tok:
                    start = _first_whole_word(tok, term)
                    if start >= 0:
                        yield i, start, term


def detect(text: str, lexicon: IdentityLexicon, tokens=None) -> IdentityMatch:
    """The lexicon terms that occur in ``text`` as whole words, in order of
    first occurrence, and the tokens that hold them.

    A caller that has already split ``text`` passes ``word_split(text)`` as
    ``tokens``. A match never crosses a token, so the terms are read off the
    tokens in order: a token of letters and digits alone holds a term only by
    being one, and a token with inner punctuation holds every term it
    contains as a whole word, ordered by offset, shorter first. ``holders``
    index every token holding a term: "muslim's", not "muslimness".
    """
    if tokens is None:
        tokens = word_split(text)
    first = {}  # term -> (token index, start, end) of its first occurrence
    holders = []
    for i, start, term in _holdings(tokens, lexicon):
        if term not in first:
            first[term] = (i, start, start + len(term))
        if not holders or holders[-1] != i:
            holders.append(i)
    # The lexicon's strings, not the tokens' copies, so a match keeps no token alive.
    found = filter(first.__contains__, lexicon.terms) if first else ()
    return IdentityMatch(tuple(sorted(found, key=first.get)), tuple(holders))


def coverage(comments, lexicon: IdentityLexicon) -> float:
    """Fraction of comments containing at least one term, to 4 decimals."""
    comments = list(comments)
    if not comments:
        raise ContractError("coverage needs at least one comment")
    hits = sum(1 for c in comments if detect(getattr(c, "text", c), lexicon).present)
    return float(round(Fraction(hits, len(comments)), 4))
