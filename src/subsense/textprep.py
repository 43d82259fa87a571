"""Word splitting, vocabulary construction and fixed-length encoding.

The encoder consumes fixed-length id sequences laid out as
``[CLS] t1 .. tk [SEP] [PAD] ...`` with a parallel attention mask that is 1
on real positions and 0 on padding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .atomic import replacing
from .errors import ContractError, EmptyDatasetError, ResourceError

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
        if chunk[0].isalnum() and chunk[-1].isalnum():  # most words: nothing to peel
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
    """Token/id bijection with the four reserved specials at ids 0..3."""

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    def __post_init__(self):
        if len(self.token_to_id) != len(self.id_to_token):
            raise ContractError("vocab maps are not a bijection")
        for i, tok in enumerate(SPECIAL_TOKENS):
            if self.id_to_token[i] != tok or self.token_to_id.get(tok) != i:
                raise ContractError(f"special token {tok} must sit at id {i}")
        for tok, i in self.token_to_id.items():
            if self.id_to_token[i] != tok:
                raise ContractError("vocab maps are not a bijection")
            if i < len(SPECIAL_TOKENS) and tok not in SPECIAL_TOKENS:
                raise ContractError(f"token {tok!r} maps into the reserved id range")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def token(self, i: int) -> str:
        return self.id_to_token[i]

    def save(self, path) -> None:
        with replacing(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        """Build from non-special tokens in id order (specials are prepended)."""
        id_to_token = list(SPECIAL_TOKENS) + list(tokens)
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise ContractError("duplicate token in vocabulary")
        return cls(token_to_id, tuple(id_to_token))

    @classmethod
    def load(cls, path) -> "Vocab":
        p = Path(path)
        if not p.exists():
            raise ResourceError(f"vocab file not found: {p}")
        lines = p.read_text(encoding="utf-8").splitlines()
        if lines[: len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
            raise ContractError(f"vocab file {p} does not start with the reserved specials")
        return cls.from_tokens(lines[len(SPECIAL_TOKENS):])


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
        raise EmptyDatasetError("cannot build a vocabulary from an empty corpus")
    eligible = [(tok, c) for tok, c in counts.items() if c >= min_freq]
    eligible.sort(key=lambda tc: (-tc[1], tc[0]))
    kept = [tok for tok, _ in eligible[: max_size - len(SPECIAL_TOKENS)]]
    return Vocab.from_tokens(kept)


@dataclass(frozen=True)
class EncodedExample:
    """Fixed-length id sequence with its base attention mask.

    ``n_real`` is derived as the number of 1 bits in the mask; ``encode``
    guarantees mask bit 1 exactly on non-PAD positions, while mask surgery
    (occlusion) may deliberately zero a real position afterwards.
    ``extent`` is one past the last 1 bit: the token layout
    ``[CLS] t1 .. tk [SEP]`` of an encoded example, whatever interior bits
    were zeroed later. No position past it is attended.
    """

    ids: tuple[int, ...]
    mask: tuple[int, ...]
    n_real: int = field(init=False)
    extent: int = field(init=False)

    def __post_init__(self):
        if len(self.ids) != len(self.mask):
            raise ContractError("ids and mask must have equal length")
        if any(b not in (0, 1) for b in self.mask):
            raise ContractError("mask bits must be 0 or 1")
        object.__setattr__(self, "n_real", sum(self.mask))
        extent = len(self.mask) - self.mask[::-1].index(1) if self.n_real else 0
        object.__setattr__(self, "extent", extent)

    def __len__(self) -> int:
        return len(self.ids)


def encode(tokens, vocab: Vocab, max_len: int) -> EncodedExample:
    """Encode tokens as ``[CLS] t1..tk [SEP] [PAD]...`` of length ``max_len``.

    Tokens past ``max_len - 2`` are dropped from the tail (head truncation);
    out-of-vocabulary tokens map to UNK.
    """
    if max_len < 3:
        raise ContractError("max_len must be at least 3")
    kept = list(tokens)[: max_len - 2]
    ids = [CLS] + [vocab.id(t) for t in kept] + [SEP]
    mask = _base_mask(len(ids), max_len)
    ids.extend([PAD] * (max_len - len(ids)))
    return EncodedExample(tuple(ids), mask)


@lru_cache(maxsize=None)
def _base_mask(n_real: int, max_len: int) -> tuple[int, ...]:
    """The mask of an encoded example with ``n_real`` real positions: one
    immutable tuple per length, shared by every example of that length (at
    most ``max_len`` cached per ``max_len``)."""
    return (1,) * n_real + (0,) * (max_len - n_real)
