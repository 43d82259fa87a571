"""The augmentation slot: an extra input position carrying the comment's
subjectivity score, attended only when the mask gate allows it.

The slot sits logically at index ``max_len`` (the encoder works on
``max_len + 1`` positions). Its embedding is the fill value replicated
across every model dimension plus a dedicated positional vector. The gate
rules per mode:

* BASELINE: slot always masked off; the encoder ignores it entirely.
* SS:       slot attended exactly when the comment contains an identity term.
* SO:       slot always attended.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ContractError
from .subjectivity import SubjectivityScore
from .textprep import EncodedExample


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


@dataclass(frozen=True)
class AugmentedExample:
    base: EncodedExample
    slot_fill: float
    slot_mask: int
    mode: AugmentMode

    def __post_init__(self):
        if not 0.0 <= self.slot_fill <= 1.0:
            raise ContractError(f"slot_fill out of [0,1]: {self.slot_fill}")
        if self.slot_mask not in (0, 1):
            raise ContractError("slot_mask must be 0 or 1")
        if self.mode is AugmentMode.BASELINE and self.slot_mask != 0:
            raise ContractError("baseline mode requires slot_mask 0")
        if self.mode is AugmentMode.SO and self.slot_mask != 1:
            raise ContractError("slot-always mode requires slot_mask 1")


def augment(
    encoded: EncodedExample,
    score: SubjectivityScore | float,
    present: bool,
    mode: AugmentMode,
) -> AugmentedExample:
    """Attach the subjectivity slot to an encoded example.

    The base example is never modified; the fill value is the score
    verbatim, with no rescaling.
    """
    fill = score.value if isinstance(score, SubjectivityScore) else float(score)
    if mode is AugmentMode.BASELINE:
        slot_mask = 0
    elif mode is AugmentMode.SO:
        slot_mask = 1
    elif mode is AugmentMode.SS:
        slot_mask = 1 if present else 0
    else:  # pragma: no cover
        raise ContractError(f"unsupported mode {mode}")
    return AugmentedExample(encoded, fill, slot_mask, mode)
