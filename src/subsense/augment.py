"""The augmentation slot: an extra input position carrying the comment's
subjectivity score, attended only when the mask gate allows it.

The slot sits logically at index ``max_len`` (the encoder works on
``max_len + 1`` positions). Its embedding is the fill value, the score
verbatim, replicated across every model dimension plus a dedicated
positional vector. The gate rules per mode, which ``augment`` applies:

* BASELINE: slot always masked off; the encoder ignores it entirely.
* SS:       slot attended exactly when the comment contains an identity term.
* SO:       slot always attended.
"""

from __future__ import annotations

from enum import Enum

from .errors import ContractError


class AugmentMode(Enum):
    BASELINE = "baseline"
    SS = "ss"
    SO = "so"

    @classmethod
    def parse(cls, raw: str) -> "AugmentMode":
        try:
            return cls(raw.strip().lower())
        except ValueError:
            raise ContractError(f"unknown augment mode {raw!r}") from None


def augment(present: bool, mode: AugmentMode) -> bool:
    """Whether the slot of a comment is attended: the gate rule of ``mode``
    for a comment that does or does not name an identity term."""
    if mode is AugmentMode.SS:
        return present
    return mode is AugmentMode.SO
