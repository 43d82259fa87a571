import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from subsense import subjectivity as sj
from subsense.errors import ContractError
from subsense.textprep import word_split

from score_vectors import PAIRED_COMMENTS, SPOT_SCORES


def make_lexicon(rows):
    """rows: iterable of (form, subjectivity[, intensity])."""
    entries = []
    for form, subj, *intensity in rows:
        entries.append(sj.LexiconEntry(form, subj, intensity=intensity[0] if intensity else 1.0))
    return sj.SubjectivityLexicon(entries)


XML_OK = """<?xml version="1.0"?>
<lexicon>
  <word form="good" pos="JJ" polarity="0.7" subjectivity="0.6" intensity="1.0"/>
  <word form="bad" polarity="-0.7" subjectivity="0.65"/>
  <word form="very" polarity="0.2" subjectivity="0.3" intensity="1.3"/>
  <word form="broken" polarity="0.0"/>
</lexicon>
"""


class TestLoading:
    def test_unmatchable_forms_are_skipped(self, tmp_path):
        path = tmp_path / "lex.xml"
        path.write_text('<lexicon><word form="good!" subjectivity="0.6"/>'
                        '<word form="fed  up" subjectivity="0.9"/>'
                        '<word form="#tag" subjectivity="0.3"/>'
                        '<word form=" Good " subjectivity="0.5"/></lexicon>')
        assert sj.load_lexicon(path).means == {"good": (0.5, 1.0)}

    def test_counts_entries_and_skips(self, tmp_path):
        path = tmp_path / "lex.xml"
        path.write_text(XML_OK)
        lex = sj.load_lexicon(path)
        assert lex.means == {"good": (0.6, 1.0), "bad": (0.65, 1.0), "very": (0.3, 1.3)}

    def test_empty_file_is_degenerate(self, tmp_path):
        path = tmp_path / "lex.xml"
        path.write_text("<lexicon></lexicon>")
        with pytest.raises(ContractError, match="contains no usable entries"):
            sj.load_lexicon(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ContractError, match="^lexicon file not found: "):
            sj.load_lexicon(tmp_path / "nope.xml")

    def test_garbled_xml(self, tmp_path):
        path = tmp_path / "lex.xml"
        path.write_text("<lexicon><word form=")
        with pytest.raises(ContractError, match=" is not well-formed XML: "):
            sj.load_lexicon(path)

    def test_reference_lexicon_count_matches_file_scan(self):
        # Independent oracle: the distinct forms of the raw <word records in
        # the packaged file, some of which hold several senses.
        raw = sj.DEFAULT_LEXICON_XML.read_text(encoding="utf-8")
        forms = re.findall(r'<word form="([^"]*)"', raw)
        assert len(forms) == raw.count("<word ") == 82
        assert sorted(sj.default_lexicon().means) == sorted(set(forms))
        assert len(set(forms)) == 79

    def test_tsv_loader(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "# comment line\n"
            "good\t0.6\t0.7\t1.0\n"
            "boring\t1.0\n"
            "broken\tnot-a-number\n"
        )
        lex = sj.load_lexicon(path)
        assert lex.means == {"good": (0.6, 1.0), "boring": (1.0, 1.0)}

    def test_tsv_round_trip(self, tmp_path):
        # The two senses of "good" become one line with their means.
        lex = make_lexicon([("very", 0.3, 1.3), ("good", 0.5), ("good", 0.7)])
        path = tmp_path / "out.tsv"
        sj.write_lexicon_tsv(lex, path)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [
            "good\t0.6\t0.0\t1.0", "very\t0.3\t0.0\t1.3"]
        assert sj.load_lexicon(path).means == lex.means == {"good": (0.6, 1.0), "very": (0.3, 1.3)}

    def test_tsv_polarity_column_is_ignored(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\t0.6\tnot-a-number\t1.3\nbad\t0.65\t-4\n")
        assert sj.load_lexicon(path).means == {"good": (0.6, 1.3), "bad": (0.65, 1.0)}

    def test_xml_polarity_and_pos_are_ignored(self, tmp_path):
        path = tmp_path / "lex.xml"
        path.write_text(
            '<lexicon><word form="good" pos="JJ" polarity="2" subjectivity="0.6" '
            'intensity="1.3"/></lexicon>'
        )
        assert sj.load_lexicon(path).means == {"good": (0.6, 1.3)}

    @pytest.mark.parametrize("name, with_empty, without", [
        ("lex.tsv", "good\t0.6\t0.0\t\nbad\t0.7\t\t\nnice\t0.5\n\t0.9\t0.0\t1.3\nmeh\t\t0.0\t1.3\n",
         "good\t0.6\nbad\t0.7\nnice\t0.5\n"),
        ("lex.xml", '<lexicon><word form="good" subjectivity="0.6" intensity=""/>'
                    '<word form="bad" subjectivity="0.7"/><word form="nice" subjectivity="0.5"/>'
                    '<word form="meh" subjectivity="" intensity="1.3"/></lexicon>',
         '<lexicon><word form="good" subjectivity="0.6"/><word form="bad" subjectivity="0.7"/>'
         '<word form="nice" subjectivity="0.5"/></lexicon>'),
    ], ids=["tsv", "xml"])
    def test_empty_optional_field_reads_as_absent(self, tmp_path, name, with_empty, without):
        # An empty intensity (and polarity) is intensity 1.0, as if the
        # column were absent; an empty form or subjectivity skips the record.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / name).write_text(with_empty)
        (tmp_path / "b" / name).write_text(without)
        lex, plain = sj.load_lexicon(tmp_path / "a" / name), sj.load_lexicon(tmp_path / "b" / name)
        assert lex.means == plain.means == {"good": (0.6, 1.0), "bad": (0.7, 1.0), "nice": (0.5, 1.0)}
        for text in ("good", "very good bad", "nice, good!", "meh good"):
            assert repr(sj.score(text, lex).value) == repr(sj.score(text, plain).value)

    def test_load_lexicon_reads_tsv_by_suffix(self, tmp_path):
        text = ("# form\tsubjectivity\tpolarity\tintensity\n"
                "good\t0.6\t0.7\t1.0\nvery\t0.3\t0.2\t1.3\nbroken\n")
        path = tmp_path / "lex.tsv"
        path.write_text(text)
        assert sj.load_lexicon(path).means == {"good": (0.6, 1.0), "very": (0.3, 1.3)}
        xml_path = tmp_path / "lex.xml"
        xml_path.write_text(text)
        with pytest.raises(ContractError, match=" is not well-formed XML: "):
            sj.load_lexicon(xml_path)


class TestEntryInvariants:
    def test_subjectivity_range(self):
        with pytest.raises(ContractError):
            sj.LexiconEntry("word", 1.5)

    def test_intensity_is_keyword_only(self):
        # A third positional value, as the polarity was, must not be read as
        # an intensity.
        with pytest.raises(TypeError):
            sj.LexiconEntry("good", 0.6, 0.7)

    def test_intensity_positive(self):
        with pytest.raises(ContractError):
            sj.LexiconEntry("word", 0.5, intensity=0.0)

    def test_form_lowercase(self):
        with pytest.raises(ContractError):
            sj.LexiconEntry("Word", 0.5)

    @pytest.mark.parametrize("form", ["!", "#tag", "good!", "(good)", "c++", "fed  up", " good",
                                      "good ", "fed\tup", "fed up!", "fed\u00a0up", "a\nb"])
    def test_form_no_token_walk_can_match(self, form):
        # A word token starts and ends with a letter or digit and holds no
        # whitespace, and a form's words are matched joined by one space.
        with pytest.raises(ContractError, match="joined by single spaces"):
            sj.LexiconEntry(form, 0.5)

    @pytest.mark.parametrize("form", ["fed up", "o'neil", "two-spirit", "x2", "é", "over the top"])
    def test_form_of_word_tokens(self, form):
        assert sj.LexiconEntry(form, 0.5).form == form

    def test_score_value_range(self):
        with pytest.raises(ContractError, match="score out of"):
            sj.SubjectivityScore(1.5)


def hits(tokens, lexicon):
    return list(sj._hits(tokens, lexicon))


def words(text):
    """The tokens ``score`` matches: ``word_split`` without punctuation."""
    return [t for t in word_split(text) if t[0].isalnum()]


class TestAssess:
    """The lexicon hits ``score`` averages, as (start, width, contribution)."""

    def test_no_hits(self):
        lex = make_lexicon([("boring", 1.0)])
        assert hits(["plain", "words", "here"], lex) == []

    def test_single_sense_passthrough(self):
        lex = make_lexicon([("boring", 1.0)])
        assert hits(["boring"], lex) == [(0, 1, 1.0)]

    def test_modifier_multiplies_and_clamps(self):
        # min(1.0, 0.9 * 1.3) = 1.0, and the modifier is consumed.
        lex = make_lexicon([("very", 0.3, 1.3), ("gripping", 0.9)])
        assert hits(["very", "gripping"], lex) == [(1, 1, 1.0)]

    def test_modifier_below_clamp(self):
        lex = make_lexicon([("very", 0.3, 1.3), ("plain", 0.5)])
        [(start, width, subj)] = hits(["very", "plain"], lex)
        assert (start, width) == (1, 1)
        assert subj == pytest.approx(0.65)

    def test_standalone_modifier_scores_itself(self):
        lex = make_lexicon([("very", 0.3, 1.3)])
        assert hits(["very", "ordinary"], lex) == [(0, 1, 0.3)]

    def test_sense_averaging(self):
        lex = make_lexicon([("fine", 0.2), ("fine", 0.8)])
        [(_, _, subj)] = hits(["fine"], lex)
        assert subj == pytest.approx(0.5)

    def test_longest_match_wins(self):
        lex = make_lexicon([("fed", 0.1), ("up", 0.2), ("fed up", 0.9)])
        assert hits(["fed", "up"], lex) == [(0, 2, 0.9)]


WALK_LEXICON = make_lexicon([
    ("very", 0.3, 1.3), ("so", 0.2, 0.5), ("gripping", 0.9), ("plain", 0.5),
    ("fed", 0.2), ("fed up", 0.8), ("worn out", 0.7), ("out", 0.4),
])


class TestWalkEdges:
    """The walk steps only over forms and form heads, and over punctuation
    tokens where they stand; each case is checked against the frozen
    every-word scan of the word tokens, starts mapped back."""

    @pytest.mark.parametrize("text", [
        "very ordinary gripping",  # a modifier, then a non-form word, then a form
        "very plain gripping",
        "very so gripping",  # two modifiers in a row
        "so very plain",
        "very fed up",  # a modifier before a multi-word form
        "so worn out now",
        "worn down gripping",  # the head of a multi-word form whose continuation fails
        "very worn down",
        "fed down so gripping",
        "gripping very",  # a modifier as the last word
        "very",
        "plain so",
        "very, gripping",  # punctuation between a modifier and its form
        "so ... fed up!",
        "worn, out",
    ])
    def test_matches_every_word_scan(self, text):
        tokens = word_split(text)
        words = [t for t in tokens if t[0].isalnum()]
        for toks in (tokens, words):
            assert hits(toks, WALK_LEXICON) == oracles.word_hits(toks, WALK_LEXICON)
        assert sj.score(text, WALK_LEXICON) == oracles.score(text, WALK_LEXICON)
        assert sj.score(text, WALK_LEXICON, tokens) == oracles.score(text, WALK_LEXICON)

    def test_word_after_a_modifier_is_matched_once(self, monkeypatch):
        # The modifier's lookahead at "good" is the match the walk uses there.
        lex = make_lexicon([("very", 0.3, 1.3), ("good", 0.6)])
        calls, match_at = [], sj._match_at

        def counted(tokens, i, lexicon):
            calls.append(i)
            return match_at(tokens, i, lexicon)

        monkeypatch.setattr(sj, "_match_at", counted)
        assert hits(["very", "good"], lex) == [(1, 1, 0.6 * 1.3)]
        assert calls == [0, 1]

    def test_form_of_punctuation_starts_nothing(self, tmp_path):
        # No word token is "!", so "!" is no form: the loader skips its
        # record, and the walk never starts at the "!" token.
        path = tmp_path / "lex.tsv"
        path.write_text("!\t0.9\ngood\t0.5\n")
        lex = sj.load_lexicon(path)
        assert list(lex.means) == ["good"]
        tokens = word_split("! good!")
        assert hits(tokens, lex) == oracles.word_hits(tokens, lex) == [(1, 1, 0.5)]
        assert sj.score("! good!", lex) == oracles.score("! good!", lex)


class TestScore:
    def test_paired_nontoxic_women_is_objective(self):
        text = PAIRED_COMMENTS["women"]["nontoxic"]
        got = sj.score(text, sj.default_lexicon())
        assert got.value == 0.0
        assert hits(words(text), sj.default_lexicon()) == []

    def test_empty_text(self):
        got = sj.score("", sj.default_lexicon())
        assert got.value == 0.0 and hits(words(""), sj.default_lexicon()) == []

    def test_paired_toxic_women_spot_value(self):
        got = sj.score(PAIRED_COMMENTS["women"]["toxic"], sj.default_lexicon())
        assert got.value == pytest.approx(0.75, abs=0.05)

    def test_single_word_is_mean_of_one(self):
        lex = make_lexicon([("moody", 0.6)])
        assert sj.score("moody", lex).value == 0.6

    def test_spot_values(self):
        lex = sj.default_lexicon()
        for key, expected in SPOT_SCORES.items():
            got = sj.score(PAIRED_COMMENTS[key]["toxic"], lex).value
            assert got == pytest.approx(expected, abs=0.05), key

    def test_paired_direction(self):
        lex = sj.default_lexicon()
        for key, pair in PAIRED_COMMENTS.items():
            toxic = sj.score(pair["toxic"], lex).value
            nontoxic = sj.score(pair["nontoxic"], lex).value
            assert toxic >= nontoxic, key

    def test_punctuation_is_ignored(self):
        lex = make_lexicon([("boring", 1.0)])
        assert sj.score("Boring!!! ...", lex).value == 1.0


WORDS = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "moody", "grim", "sunny", "flat", "x1", "y2"]
)
PROPERTY_LEXICON = make_lexicon(
    [("moody", 0.6), ("grim", 0.9), ("sunny", 0.4), ("flat", 0.1)]
)


FORM_WORDS = st.text(alphabet="abé2'-", min_size=1, max_size=4).filter(
    lambda w: w[0].isalnum() and w[-1].isalnum())
# A few forms, then senses drawn among them, so most forms hold several.
ENTRIES = st.lists(st.lists(FORM_WORDS, min_size=1, max_size=3).map(" ".join),
                   min_size=1, max_size=6).flatmap(lambda forms: st.lists(st.builds(
    sj.LexiconEntry, st.sampled_from(forms), st.floats(0.0, 1.0),
    intensity=st.one_of(st.just(1.0), st.floats(0.0, 1e6, exclude_min=True))),
    min_size=1, max_size=16))
TEXTS = st.lists(st.one_of(FORM_WORDS, st.sampled_from(["!", "...", "A", "B2", "(a", "b,"])),
                 max_size=16).map(" ".join)


class TestProperties:
    @settings(deadline=None)
    @given(ENTRIES, st.lists(TEXTS, max_size=8))
    def test_tsv_rewrite_scores_as_the_lexicon(self, entries, texts):
        # A run keeps its lexicon as this rewrite, so eval must score with
        # it exactly as train scored with the lexicon it loaded.
        # Each form is one line with its means, which read back as they were.
        lex = sj.SubjectivityLexicon(entries)
        with tempfile.TemporaryDirectory() as tmp:
            sj.write_lexicon_tsv(lex, Path(tmp) / "lexicon.tsv")
            lines = (Path(tmp) / "lexicon.tsv").read_text(encoding="utf-8").splitlines()[1:]
            back = sj.load_lexicon(Path(tmp) / "lexicon.tsv")
        assert [line.split("\t")[0] for line in lines] == sorted(lex.means)
        assert repr(sorted(back.means.items())) == repr(sorted(lex.means.items()))
        for text in texts:
            assert repr(sj.score(text, back).value) == repr(sj.score(text, lex).value)

    @given(st.lists(WORDS, max_size=12))
    def test_score_range(self, tokens):
        value = sj.score(" ".join(tokens), PROPERTY_LEXICON).value
        assert 0.0 <= value <= 1.0

    @given(st.lists(st.sampled_from(["alpha", "beta", "x1"]), max_size=10))
    def test_no_match_scores_zero(self, tokens):
        assert sj.score(" ".join(tokens), PROPERTY_LEXICON).value == 0.0

    @given(st.lists(WORDS, max_size=12), st.randoms(use_true_random=False))
    def test_permutation_invariance_without_modifiers(self, tokens, rnd):
        # No entry carries intensity != 1, so every permutation preserves
        # all (modifier, match) adjacencies vacuously.
        base = sj.score(" ".join(tokens), PROPERTY_LEXICON).value
        shuffled = list(tokens)
        rnd.shuffle(shuffled)
        assert sj.score(" ".join(shuffled), PROPERTY_LEXICON).value == pytest.approx(base)

    @given(st.lists(WORDS, max_size=12), st.sampled_from(["moody", "grim", "sunny", "flat"]))
    def test_adding_match_moves_score_toward_it(self, tokens, extra):
        lex = PROPERTY_LEXICON
        before = sj.score(" ".join(tokens), lex)
        after = sj.score(" ".join(tokens + [extra]), lex)
        target = lex.means[extra][0]
        if not hits(tokens, lex):
            assert after.value == pytest.approx(target)
        else:
            lo, hi = sorted((before.value, target))
            assert lo - 1e-12 <= after.value <= hi + 1e-12
