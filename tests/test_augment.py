import dataclasses

import numpy as np
import pytest

from subsense import augment as ag
from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense import trainer as tr
from subsense.datasets import Comment, Label
from subsense.errors import ContractError

VOCAB = tp.Vocab.from_tokens(["the", "women", "spoke", "boring", "meeting"])


def prepare(texts, mode, lexicon=None):
    comments = [Comment(f"c{i}", text, Label(i % 2)) for i, text in enumerate(texts)]
    return tr.prepare_examples(comments, VOCAB, lexicon or sj.default_lexicon(),
                               idn.default_terms(), 8, mode)


def with_columns(prepared, **changes):
    """``prepared`` with some of its encoder columns replaced, checked anew."""
    return dataclasses.replace(prepared, data=dataclasses.replace(prepared.data, **changes))


class TestGateRules:
    def test_ss_without_identity_masks_slot(self):
        assert ag.augment(False, ag.AugmentMode.SS) is False

    def test_so_attends_regardless(self):
        assert ag.augment(False, ag.AugmentMode.SO) is True

    def test_baseline_always_masked(self):
        assert ag.augment(True, ag.AugmentMode.BASELINE) is False

    def test_ss_with_identity_attends(self):
        assert ag.augment(True, ag.AugmentMode.SS) is True

    def test_gate_ignores_zero_score(self):
        lexicon = sj.SubjectivityLexicon([sj.LexiconEntry("boring", 0.6)])
        prepared = prepare(["the women spoke"], ag.AugmentMode.SS, lexicon)
        assert prepared.data.fill.tolist() == [0.0]
        assert prepared.data.kmask[:, -1].tolist() == [True]


class TestInvariants:
    def test_fill_range(self):
        prepared = prepare(["the women spoke", "boring meeting"], ag.AugmentMode.SS)
        for bad in (1.2, -0.1, float("nan"), float("inf")):
            with pytest.raises(ContractError, match="slot_fill out of"):
                with_columns(prepared, fill=np.array([0.5, bad]))

    def test_baseline_mask_rule(self):
        prepared = prepare(["the women spoke", "boring meeting"], ag.AugmentMode.BASELINE)
        kmask = prepared.data.kmask.copy()
        kmask[1, -1] = True
        with pytest.raises(ContractError, match="baseline"):
            with_columns(prepared, kmask=kmask)

    def test_so_mask_rule(self):
        prepared = prepare(["the women spoke", "boring meeting"], ag.AugmentMode.SO)
        kmask = prepared.data.kmask.copy()
        kmask[0, -1] = False
        with pytest.raises(ContractError, match="slot-always"):
            with_columns(prepared, kmask=kmask)

    def test_mode_parse(self):
        assert ag.AugmentMode.parse("SS") is ag.AugmentMode.SS
        with pytest.raises(ContractError):
            ag.AugmentMode.parse("nope")


class TestGateSoundnessAndFidelity:
    TEXTS = [
        "the women spoke at the meeting",
        "a boring meeting about budgets",
        "whitewash is not an identity word",
        "the gay couple moved in",
        "completely neutral sentence",
        "",
    ]

    def test_gate_matches_detection(self):
        terms = idn.default_terms()
        prepared = prepare(self.TEXTS, ag.AugmentMode.SS)
        assert prepared.data.kmask[:, -1].tolist() == [
            idn.detect(text, terms).present for text in self.TEXTS]

    def test_fill_is_score_verbatim(self):
        lex = sj.default_lexicon()
        for mode in ag.AugmentMode:
            prepared = prepare(self.TEXTS, mode)
            assert prepared.data.fill.tolist() == [sj.score(text, lex).value
                                                   for text in self.TEXTS]

    def test_base_untouched(self):
        """The gate changes the slot column alone: every mode encodes the
        same ids and token masks."""
        sets = [prepare(self.TEXTS, mode) for mode in ag.AugmentMode]
        for other in sets[1:]:
            assert np.array_equal(other.data.ids, sets[0].data.ids)
            assert np.array_equal(other.data.kmask[:, :-1], sets[0].data.kmask[:, :-1])
