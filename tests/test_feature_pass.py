"""The single feature pass equals the frozen per-call path in ``oracles``.

``word_split``, ``score`` and identity ``detect`` are compared on arbitrary
text, ``assess`` on token streams built from lexicon forms, modifiers,
"not", "never" and filler, and ``prepare_examples`` plus the audit on whole
corpora: every value must be exactly equal, not merely close. The columnar
``PreparedSet`` must equal the per-row pipeline in ``oracles`` bit for bit.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsense import audit
from subsense import datasets as ds
from subsense import encoder as enc
from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense import trainer as tr
from subsense.augment import AugmentMode

import oracles

PACKAGED = sj.default_lexicon()
TERMS = idn.default_terms()

# Several senses per form (the means are not a single value), two- and
# three-word forms, modifiers that also start or finish a longer form, and a
# former negation word ("not") as a form of its own.
STREAM_LEXICON = sj.SubjectivityLexicon(
    [
        sj.LexiconEntry("good", 0.6),
        sj.LexiconEntry("good", 0.7),
        sj.LexiconEntry("good", 0.35, intensity=1.0),
        sj.LexiconEntry("bad", 0.65),
        sj.LexiconEntry("very", 0.3, intensity=1.3),
        sj.LexiconEntry("very", 0.2, intensity=1.4),
        sj.LexiconEntry("slightly", 0.1, intensity=0.7),
        sj.LexiconEntry("fed up", 0.9),
        sj.LexiconEntry("very well", 0.4),
        sj.LexiconEntry("over the top", 0.8, intensity=1.2),
        sj.LexiconEntry("top", 0.5),
        sj.LexiconEntry("not", 0.05),
    ],
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


# Lexicon words with punctuation-only chunks between and around them, so
# that forms, heads and modifiers meet punctuation tokens in the text.
PUNCTUATION_CHUNKS = (",", "...", "!!", "(", ")", "!", "?")


@settings(max_examples=400)
@given(st.lists(st.tuples(st.sampled_from(STREAM_WORDS + PUNCTUATION_CHUNKS),
                          st.sampled_from((" ", ""))), max_size=14)
       .map(lambda pieces: "".join(piece + gap for piece, gap in pieces)))
@example("fed , up")
@example("over , the ! top")
@example("very , , good")
@example("good very ,")
@example("!!! very")
@example("very (good)")
def test_score_matches_oracle_on_punctuated_lexicon_text(text):
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
    # A modifier as the last token makes the lookahead read one past the end;
    # punctuation tokens ("," "!!" "(good)") are stepped over where they stand.
    assert list(sj._hits(tokens, STREAM_LEXICON)) == oracles.word_hits(tokens, STREAM_LEXICON)
    assert list(sj._hits(tokens, PACKAGED)) == oracles.word_hits(tokens, PACKAGED)
    text = " ".join(tokens)
    assert sj.score(text, STREAM_LEXICON) == oracles.score(text, STREAM_LEXICON)


# Terms with punctuation and the terms nested in them, two of which start
# where another does (so one token holds several terms at one offset), a
# term that is a prefix of another, and a term ending in a final sigma.
DETECT_TERMS = idn.IdentityLexicon(("two-spirit", "spirit-two", "two", "spirit", "jew", "jews",
                                    "women", "\u03bf\u03b4\u03bf\u03c2"))
DETECT_PIECES = ("two-spirit", "Two-Spirit", "two", "spirit", "jew", "Jews", "jewish", "women",
                 "WOMEN-only", "'s", " ", ",", "-", "+", "x", "é", "\n", "ΟΔΟΣ", "_", "'")


@settings(max_examples=300)
@given(st.one_of(st.text(), st.lists(st.sampled_from(DETECT_PIECES), max_size=12).map("".join)))
@example("")
@example("two-spirittwo-spirit jews,jew two-spirit-")
@example("jewjews women's")
@example("ΟΔΟΣ ΟΔΟΣ'Α ΟΔΟΣ-two")  # Σ lowers to a final ς only at the end of a word
@example("İslam islam")
@example("_muslim_ _jew_")
@example("x_muslim x_two")
@example("muslim's muslim")
@example("spirit-two-spirit two-spirit-two, spirit two")
def test_detect_matches_oracle_on_any_text(text):
    for lexicon in (TERMS, DETECT_TERMS):
        want = oracles.detect(text, lexicon)
        for got in (idn.detect(text, lexicon), idn.detect(text, lexicon, tp.word_split(text))):
            assert (got.terms, got.present) == (want.terms, want.present)


def test_score_of_a_punctuation_form_is_zero(tmp_path):
    """``word_split`` emits punctuation one character at a time, so a form of
    punctuation alone could never match: ``LexiconEntry`` refuses it and the
    loader skips its record. A text whose tokens start no form returns
    before the scan; tokens given with "!!" itself find no form there. Both
    give 0.0."""
    path = tmp_path / "lexicon.tsv"
    path.write_text("!!\t0.9\nmeh\t0.7\n", encoding="utf-8")
    lexicon = sj.load_lexicon(path)
    assert list(lexicon.forms) == ["meh"]
    zero = sj.SubjectivityScore(0.0)
    for text in ("wow !! great", "!!", "a!!"):
        assert sj.score(text, lexicon) == oracles.score(text, lexicon) == zero
    assert sj.score("!!", lexicon, ["!!"]) == zero


def test_sense_means_are_the_per_call_means():
    for lexicon in (PACKAGED, STREAM_LEXICON):
        for form in lexicon.forms:
            assert lexicon.mean_subjectivity(form) == oracles._mean(lexicon, form, "subjectivity")
            assert lexicon.mean_intensity(form) == oracles._mean(lexicon, form, "intensity")


def alnum_only(positions, tokens):
    """The positions whose token is letters and digits alone. There the
    oracle's exact token match and the whole-word rule agree; a token such as
    "muslim's" holds a term only by the whole-word rule."""
    return tuple(p for p in positions if tokens[p - 1].isalnum())


@given(st.lists(st.sampled_from(STREAM_WORDS + TERMS.terms + ("Muslim", "jews,")), max_size=8))
def test_identity_positions_match_term_scan(tokens):
    for max_len in (3, 6, 12):
        assert alnum_only(oracles.identity_token_positions(tokens, TERMS.terms, max_len),
                          tokens) == oracles.exact_token_positions(tokens, TERMS, max_len)


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
        got = oracles.rows(tr.prepare_examples(comments, vocab, lexicon, TERMS, max_len, mode))
        want = oracles.prepare_examples(comments, vocab, lexicon, TERMS, max_len, mode)
        assert len(got) == len(want) == len(comments)
        for ex, (aug, positions), comment in zip(got, want, comments):
            assert ex.aug.base.ids == aug.base.ids
            assert ex.aug.base.mask == aug.base.mask
            assert ex.aug.slot_fill == aug.slot_fill
            assert ex.aug.slot_mask == aug.slot_mask
            tokens = oracles.word_split(comment.text)
            assert alnum_only(ex.identity_positions, tokens) == positions
            assert ex.label == comment.label
            assert ex.features == oracles.features([comment], TERMS, lexicon)[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_audit_report_matches_oracle(corpora, seed):
    rng = random.Random(seed)
    for comments, vocab, lexicon in corpora:
        prepared = tr.prepare_examples(comments, vocab, lexicon, TERMS, 16, AugmentMode.SS)
        preds = [rng.choice([ds.Label.TOXIC, ds.Label.NONTOXIC]) for _ in comments]
        golds = [c.label for c in comments]
        report = audit.audit_report(comments, preds, golds,
                                    oracles.prepared_features(prepared))
        expected = oracles.audit_report(comments, preds, golds, TERMS, lexicon)
        assert report.to_json_dict() == expected.to_json_dict()
        assert report.to_text() == expected.to_text()
        assert list(report.cells.items()) == list(expected.cells.items())


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


COMMENT_TEXTS = st.one_of(
    st.text(max_size=60),
    st.lists(st.sampled_from(STREAM_WORDS + TERMS.terms + ("Muslim's", "jews,", "women-only")),
             max_size=40).map(" ".join),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(COMMENT_TEXTS, st.sampled_from(list(ds.Label))),
                min_size=1, max_size=6),
       st.integers(min_value=5, max_value=40))
@example([("", ds.Label.TOXIC)], 5)
@example([("the muslim's view of women-only events", ds.Label.NONTOXIC),
          ("very good", ds.Label.TOXIC)], 8)
def test_prepared_set_equals_per_row_pipeline(texts, vocab_size):
    """On arbitrary text, in every mode and at long and truncating lengths,
    the columns of ``prepare_examples`` are the per-row examples assembled."""
    comments = [ds.Comment(f"c{i}", text, label) for i, (text, label) in enumerate(texts)]
    vocab = tp.build_vocab([" ".join(STREAM_WORDS)] + [text for text, _ in texts],
                           max_size=vocab_size)
    for mode in AugmentMode:
        for max_len in (3, 5, 16, 128):
            got = tr.prepare_examples(comments, vocab, STREAM_LEXICON, TERMS, max_len, mode)
            rows = oracles.prepare_rows(comments, vocab, STREAM_LEXICON, TERMS, max_len, mode)
            config = enc.ModelConfig(max_len=max_len, vocab_size=len(vocab), d_model=2,
                                     n_heads=1)
            want = oracles.assemble([ex.aug for ex in rows], config)
            for name in ("ids", "kmask", "fill", "extent"):
                assert same_array(getattr(got.data, name), getattr(want, name)), name
            assert got.data.variants is None
            assert same_array(got.labels, np.array([int(ex.label) for ex in rows]))
            offsets, positions = oracles.identity_csr(rows)
            assert same_array(got.offsets, offsets)
            assert same_array(got.positions, positions)
            assert oracles.prepared_features(got) == [ex.features for ex in rows]
            assert (got.mode, got.max_len, got.vocab_size) == (mode, max_len, len(vocab))
