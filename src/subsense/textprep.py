"""Word splitting, vocabulary construction and id encoding.

An encoder row is laid out as ``[CLS] t1 .. tk [SEP] [PAD] ...``, attended
exactly on its real positions; ``encode`` returns its unpadded ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .atomic import replacing
from .errors import ContractError, read_text

PAD, UNK, CLS, SEP = 0, 1, 2, 3
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")


def word_split(text: str) -> list[str]:
    """Lowercase and split into word tokens.

    Splits on whitespace, then peels leading and trailing punctuation off
    each chunk into tokens of their own. Internal punctuation (apostrophes,
    hyphens) stays inside the word. Deterministic on any input.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        if chunk.isalnum():  # most words: nothing to peel, one test
            tokens.append(chunk)
            continue
        lead: list[str] = []
        while chunk and not chunk[0].isalnum():
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and not chunk[-1].isalnum():
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


@dataclass(frozen=True)
class Vocab:
    """Tokens in id order, the four reserved specials at ids 0..3;
    ``token_to_id`` is their inverse, built once."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.id_to_token[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ContractError("the reserved special tokens must come first, at ids 0..3")
        token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(token_to_id) != len(self.id_to_token):
            raise ContractError("duplicate token in vocabulary")
        object.__setattr__(self, "token_to_id", token_to_id)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def save(self, path) -> None:
        with replacing(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        """Build from non-special tokens in id order (specials are prepended)."""
        return cls(SPECIAL_TOKENS + tuple(tokens))

    @classmethod
    def load(cls, path) -> "Vocab":
        p = Path(path)
        lines = read_text(p, "vocab file").splitlines()  # its refusals name the file
        try:
            return cls(tuple(lines))
        except ContractError as exc:
            raise ContractError(f"vocab file {p}: {exc}") from None


def build_vocab(corpus, max_size: int = 8000, min_freq: int = 1) -> Vocab:
    """Frequency vocabulary over word-split texts.

    Keeps the ``max_size - 4`` most frequent tokens with frequency at least
    ``min_freq``; ties break lexicographically. ``corpus`` items may be raw
    strings or objects with a ``text`` attribute.
    """
    if max_size <= len(SPECIAL_TOKENS):
        raise ContractError(f"max_size must exceed {len(SPECIAL_TOKENS)}")
    if min_freq < 1:
        raise ContractError("min_freq must be at least 1")
    counts: Counter[str] = Counter()
    n_items = 0
    for item in corpus:
        n_items += 1
        counts.update(word_split(getattr(item, "text", item)))
    if n_items == 0:
        raise ContractError("cannot build a vocabulary from an empty corpus")
    eligible = [(tok, c) for tok, c in counts.items() if c >= min_freq]
    eligible.sort(key=lambda tc: (-tc[1], tc[0]))
    kept = [tok for tok, _ in eligible[: max_size - len(SPECIAL_TOKENS)]]
    return Vocab.from_tokens(kept)


def encode(tokens, vocab: Vocab, max_len: int) -> list[int]:
    """The ids ``[CLS] t1..tk [SEP]`` of a comment's tokens: the attended
    positions of its encoder row, at most ``max_len``, without padding.

    Tokens past ``max_len - 2`` are dropped from the tail (head truncation);
    out-of-vocabulary tokens map to UNK.
    """
    if max_len < 3:
        raise ContractError("max_len must be at least 3")
    return [CLS, *map(vocab.token_to_id.get, tokens[: max_len - 2], repeat(UNK)), SEP]
