"""Subjectivity-gated input augmentation for toxic comment classification.

The toolkit scores how opinionated a comment is against a word-sense
lexicon, detects identity terms, and feeds both signals to a small
trainable transformer through an extra input slot whose attention mask is
gated on identity-term presence. A bias-audit harness decomposes errors by
identity presence and subjectivity.
"""

from .augment import AugmentMode
from .datasets import Comment, DatasetKind, Label, convert, split, synth_generate
from .encoder import ModelConfig, backward, forward, init
from .errors import SubsenseError
from .identity import IdentityLexicon, IdentityMatch, coverage, default_terms, detect
from .subjectivity import (
    LexiconEntry,
    SubjectivityLexicon,
    SubjectivityScore,
    default_lexicon,
    load_lexicon,
    score,
)
from .textprep import Vocab, build_vocab, encode, word_split
from .trainer import ClassWeights, TrainSchedule, class_weights, train

__version__ = "0.1.0"

__all__ = [
    "AugmentMode",
    "Comment", "DatasetKind", "Label", "convert", "split", "synth_generate",
    "ModelConfig", "backward", "forward", "init",
    "SubsenseError",
    "IdentityLexicon", "IdentityMatch", "coverage", "default_terms", "detect",
    "LexiconEntry", "SubjectivityLexicon", "SubjectivityScore",
    "default_lexicon", "load_lexicon", "score",
    "Vocab", "build_vocab", "encode", "word_split",
    "ClassWeights", "TrainSchedule", "class_weights", "train",
    "__version__",
]
