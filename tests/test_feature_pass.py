"""The single feature pass equals the frozen per-call path in ``oracles``.

``word_split`` and ``score`` are compared on arbitrary text, ``assess`` on
token streams built from lexicon forms, modifiers, negations and filler,
and ``prepare_examples`` plus the audit on whole corpora: every value must
be exactly equal, not merely close.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsense import audit
from subsense import datasets as ds
from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense import trainer as tr
from subsense.augment import AugmentMode

import oracles

PACKAGED = sj.default_lexicon()
TERMS = idn.default_terms()

# Several senses per form (the means are not a single value), two- and
# three-word forms, modifiers that also start or finish a longer form, and
# negations.
STREAM_LEXICON = sj.SubjectivityLexicon(
    [
        sj.LexiconEntry("good", 0.6, 0.7),
        sj.LexiconEntry("good", 0.7, 0.1),
        sj.LexiconEntry("good", 0.35, 0.3, 1.0),
        sj.LexiconEntry("bad", 0.65, -0.7),
        sj.LexiconEntry("very", 0.3, 0.2, 1.3),
        sj.LexiconEntry("very", 0.2, 0.1, 1.4),
        sj.LexiconEntry("slightly", 0.1, 0.0, 0.7),
        sj.LexiconEntry("fed up", 0.9, -0.6),
        sj.LexiconEntry("very well", 0.4, 0.3),
        sj.LexiconEntry("over the top", 0.8, -0.2, 1.2),
        sj.LexiconEntry("top", 0.5, 0.4),
        sj.LexiconEntry("not", 0.05, 0.0),
    ],
    negations=("not", "never"),
)
STREAM_WORDS = (
    "good", "bad", "very", "slightly", "fed", "up", "well", "over", "the", "top",
    "not", "never", "table", "muslim", "fed up", ",", "!!", "(good)", "very,",
)

TRICKY_TEXTS = (
    "", "   ", "...", "!!! ?? ,", "muslim's", "islam,jews", "the muslim's view",
    "women-only event", "black-and-white photo", "I am fed up!!! Very good...",
    "not (bad)", "very", "Very GOOD, very", "'quoted' -- dashes --", "café naïve",
    "ǅemal İstanbul ﬁne", "(((jews)))", "over the top", "over the", "very, good",
    "not ... bad", "fed , up",
)


@settings(max_examples=300)
@given(st.text())
@example("")
@example("... ?! ,,")
@example("muslim's")
@example("islam,jews")
@example("-- women-only --")
@example("İİ ǅ ﬃ")
def test_word_split_matches_oracle(text):
    assert tp.word_split(text) == oracles.word_split(text)


@settings(max_examples=300)
@given(st.text())
@example("")
@example("!!! ?? ,")
@example("muslim's fed up, very good")
@example("islam,jews")
def test_score_matches_oracle_on_any_text(text):
    for lexicon in (PACKAGED, STREAM_LEXICON):
        expected = oracles.score(text, lexicon)
        assert sj.score(text, lexicon) == expected
        assert sj.score(text, lexicon, tp.word_split(text)) == expected


@pytest.mark.parametrize("text", TRICKY_TEXTS)
def test_score_of_presplit_tokens_is_score(text):
    for lexicon in (PACKAGED, STREAM_LEXICON):
        expected = oracles.score(text, lexicon)
        assert sj.score(text, lexicon, tp.word_split(text)) == expected
        assert sj.score(text, lexicon) == expected


@settings(max_examples=400)
@given(st.lists(st.sampled_from(STREAM_WORDS), max_size=14))
@example(["good", "very"])
@example(["very"])
@example(["slightly", "very"])
@example(["not", "very", "good", "slightly"])
@example(["over", "the"])
@example(["fed"])
@example(["very", "well", "very"])
@example(["very", ",", "good"])
def test_assess_matches_oracle_on_token_streams(tokens):
    # A modifier as the last token makes the lookahead read one past the end.
    assert sj.assess(tokens, STREAM_LEXICON) == oracles.assess(tokens, STREAM_LEXICON)
    assert sj.assess(tokens, PACKAGED) == oracles.assess(tokens, PACKAGED)
    text = " ".join(tokens)
    assert sj.score(text, STREAM_LEXICON) == oracles.score(text, STREAM_LEXICON)


def test_sense_means_are_the_per_call_means():
    for lexicon in (PACKAGED, STREAM_LEXICON):
        for form in lexicon.forms:
            assert lexicon.mean_subjectivity(form) == oracles._mean(lexicon, form, "subjectivity")
            assert lexicon.mean_polarity(form) == oracles._mean(lexicon, form, "polarity")
            assert lexicon.mean_intensity(form) == oracles._mean(lexicon, form, "intensity")


@given(st.lists(st.sampled_from(STREAM_WORDS + TERMS.terms + ("Muslim", "jews,")), max_size=8))
def test_identity_positions_match_term_scan(tokens):
    for max_len in (3, 6, 12):
        assert tr.identity_token_positions(tokens, TERMS, max_len) == \
            oracles.identity_token_positions(tokens, TERMS, max_len)


@pytest.fixture(scope="module")
def corpora():
    """The acceptance suite's synthetic task with its lexicon, and hand-made
    comments with punctuation and multi-word forms with the packaged one."""
    synth = ds.synth_generate(2000, theta=0.5, noise=0.0, seed=42)
    train, _, _ = ds.split(list(synth.comments), seed=7)
    labels = (ds.Label.TOXIC, ds.Label.NONTOXIC)
    tricky = [ds.Comment(f"x{i}", text, labels[i % 2]) for i, text in enumerate(TRICKY_TEXTS)]
    return [
        (list(synth.comments), tp.build_vocab(train, max_size=400, min_freq=2), synth.lexicon),
        (tricky, tp.build_vocab(tricky), PACKAGED),
    ]


@pytest.mark.parametrize("mode", list(AugmentMode))
@pytest.mark.parametrize("max_len", [5, 16])
def test_prepare_examples_matches_oracle_path(corpora, mode, max_len):
    for comments, vocab, lexicon in corpora:
        got = tr.prepare_examples(comments, vocab, lexicon, TERMS, max_len, mode)
        want = oracles.prepare_examples(comments, vocab, lexicon, TERMS, max_len, mode)
        assert len(got) == len(want) == len(comments)
        for ex, (aug, positions), comment in zip(got, want, comments):
            assert ex.aug.base.ids == aug.base.ids
            assert ex.aug.base.mask == aug.base.mask
            assert ex.aug.slot_fill == aug.slot_fill
            assert ex.aug.slot_mask == aug.slot_mask
            assert ex.identity_positions == positions
            assert ex.label == comment.label
            assert ex.features == oracles.features([comment], TERMS, lexicon)[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_audit_report_matches_oracle(corpora, seed):
    rng = random.Random(seed)
    for comments, vocab, lexicon in corpora:
        prepared = tr.prepare_examples(comments, vocab, lexicon, TERMS, 16, AugmentMode.SS)
        preds = [rng.choice([ds.Label.TOXIC, ds.Label.NONTOXIC]) for _ in comments]
        golds = [c.label for c in comments]
        report = audit.audit_report(comments, preds, golds, [ex.features for ex in prepared])
        expected = oracles.audit_report(comments, preds, golds, TERMS, lexicon)
        assert report.to_json_dict() == expected.to_json_dict()
        assert report.to_text() == expected.to_text()
        assert report.cells_csv_rows() == expected.cells_csv_rows()
