import pytest

from subsense import augment as ag
from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense.errors import ContractError

VOCAB = tp.Vocab.from_tokens(["the", "women", "spoke", "boring", "meeting"])


def enc(text, max_len=8):
    return tp.encode(tp.word_split(text), VOCAB, max_len)


class TestGateRules:
    def test_ss_without_identity_masks_slot(self):
        ex = ag.augment(enc("x"), sj.SubjectivityScore(0.9, 1), False, ag.AugmentMode.SS)
        assert ex.slot_mask == 0
        assert ex.slot_fill == 0.9

    def test_so_attends_regardless(self):
        ex = ag.augment(enc("x"), sj.SubjectivityScore(0.9, 1), False, ag.AugmentMode.SO)
        assert ex.slot_mask == 1

    def test_baseline_always_masked(self):
        ex = ag.augment(enc("x"), sj.SubjectivityScore(0.4, 1), True, ag.AugmentMode.BASELINE)
        assert ex.slot_mask == 0

    def test_ss_with_identity_attends(self):
        ex = ag.augment(enc("x"), sj.SubjectivityScore(0.6444, 2), True, ag.AugmentMode.SS)
        assert ex.slot_mask == 1
        assert ex.slot_fill == 0.6444

    def test_gate_ignores_zero_score(self):
        ex = ag.augment(enc("x"), sj.SubjectivityScore(0.0, 0), True, ag.AugmentMode.SS)
        assert ex.slot_mask == 1


class TestInvariants:
    def test_fill_range(self):
        with pytest.raises(ContractError):
            ag.AugmentedExample(enc("x"), 1.2, 1, ag.AugmentMode.SS)

    def test_baseline_mask_rule(self):
        with pytest.raises(ContractError):
            ag.AugmentedExample(enc("x"), 0.5, 1, ag.AugmentMode.BASELINE)

    def test_so_mask_rule(self):
        with pytest.raises(ContractError):
            ag.AugmentedExample(enc("x"), 0.5, 0, ag.AugmentMode.SO)

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
        lex = sj.default_lexicon()
        terms = idn.default_terms()
        for text in self.TEXTS:
            s = sj.score(text, lex)
            present = idn.detect(text, terms).present
            ex = ag.augment(enc(text), s, present, ag.AugmentMode.SS)
            assert ex.slot_mask == (1 if present else 0)

    def test_fill_is_score_verbatim(self):
        lex = sj.default_lexicon()
        for text in self.TEXTS:
            s = sj.score(text, lex)
            ex = ag.augment(enc(text), s, False, ag.AugmentMode.SS)
            assert ex.slot_fill == s.value

    def test_base_untouched(self):
        base = enc("the women spoke")
        before = (base.ids, base.mask)
        ex = ag.augment(base, sj.SubjectivityScore(0.7, 1), True, ag.AugmentMode.SS)
        assert ex.base is base
        assert (base.ids, base.mask) == before
