import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import trainer as tr
from subsense.augment import AugmentMode
from subsense.datasets import Comment, Label
from subsense.errors import ContractError
from subsense.textprep import build_vocab, word_split

import oracles
from score_vectors import PAIRED_COMMENTS

EXPECTED_TERMS = (
    "muslim", "jew", "jews", "white", "islam", "blacks", "muslims", "women",
    "whites", "gay", "black", "democat", "islamic", "allah", "jewish",
    "lesbian", "transgender", "race", "brown", "woman", "mexican", "religion",
    "homosexual", "homosexuality", "africans",
)


class TestDefaultTerms:
    def test_exact_stock_list(self):
        lex = idn.default_terms()
        assert lex.terms == EXPECTED_TERMS

    def test_size_25(self):
        assert len(idn.default_terms().terms) == 25

    def test_known_members(self):
        lex = idn.default_terms()
        for term in ("muslim", "africans", "transgender", "democat"):
            assert term in lex.terms

    def test_liberal_not_covered(self):
        assert "liberal" not in idn.default_terms().terms

    def test_membership_is_the_term_list(self):
        lex = idn.IdentityLexicon(("women", "gay", "jews"))
        assert lex.terms == ("women", "gay", "jews")
        assert lex == idn.IdentityLexicon(("women", "gay", "jews"))
        assert lex != idn.IdentityLexicon(("jews", "gay", "women"))
        assert hash(lex) == hash(idn.IdentityLexicon(("women", "gay", "jews")))


class TestLexiconInvariants:
    def test_rejects_uppercase(self):
        with pytest.raises(ContractError):
            idn.IdentityLexicon(("Muslim",))

    def test_rejects_whitespace(self):
        with pytest.raises(ContractError):
            idn.IdentityLexicon(("two words",))

    def test_rejects_duplicates(self):
        with pytest.raises(ContractError):
            idn.IdentityLexicon(("gay", "gay"))

    @pytest.mark.parametrize("term", ["c++", "#metoo", "(((jews)))", "'s", "-", "ok."])
    def test_rejects_punctuation_at_either_end(self, term):
        # No word_split token could hold such a term, so the occlusion
        # regularizer would have nothing to hide when it opens the gate.
        with pytest.raises(ContractError, match="start and end with a letter or digit"):
            idn.IdentityLexicon(("women", term))


class TestDetect:
    def test_paired_comment_hit(self):
        match = idn.detect(PAIRED_COMMENTS["gay"]["nontoxic"], idn.default_terms())
        assert match.present
        assert "gay" in match.terms

    def test_empty_text(self):
        match = idn.detect("", idn.default_terms())
        assert not match.present
        assert match.terms == ()

    def test_whole_word_boundary(self):
        assert not idn.detect("whitewash the fence", idn.default_terms()).present

    def test_uncovered_identifier(self):
        text = "liberal is just the pc word for rap ist ."
        assert not idn.detect(text, idn.default_terms()).present

    def test_case_insensitive(self):
        match = idn.detect("The MUSLIM community", idn.default_terms())
        assert match.present and match.terms == ("muslim",)

    def test_all_occurrences_reported(self):
        # Every term that occurs is reported once, in order of first occurrence.
        match = idn.detect("gay and women, gay again; Muslim women", idn.default_terms())
        assert match.terms == ("gay", "women", "muslim")

    def test_punctuation_boundaries_count(self):
        assert idn.detect("(women)", idn.default_terms()).present

    def test_terms_are_the_lexicons_strings(self):
        # A match holds the lexicon's strings, so the feature pass's stored
        # terms keep no comment's tokens alive.
        lexicon = idn.load_terms(idn.CURATED_TERMS_FILE)
        text = "Gay women and muslim's Jews"
        match = idn.detect(text, lexicon, word_split(text))
        assert match.terms == ("gay", "women", "muslim", "jews")
        assert all(any(t is u for u in lexicon.terms) for t in match.terms)

    def test_match_invariant(self):
        # present is read off the terms, so the two cannot disagree.
        assert not idn.IdentityMatch((), ()).present
        assert idn.IdentityMatch(("gay",), (0,)).present
        assert idn.detect("gay", idn.default_terms()) == idn.IdentityMatch(("gay",), (0,))

    def test_holders_are_the_tokens_holding_a_term(self):
        text = "The muslim's view: (((jews))) and muslimness, islam,jews and jews again"
        match = idn.detect(text, idn.default_terms())
        tokens = word_split(text)
        assert [tokens[i] for i in match.holders] == ["muslim's", "jews", "islam,jews", "jews"]
        assert match.terms == ("muslim", "jews", "islam")


def brute_force_present(text, terms):
    """Char-scan oracle: no find(), no regex."""
    lowered = text.lower()
    n = len(lowered)
    for term in terms:
        k = len(term)
        for i in range(n - k + 1):
            if lowered[i : i + k] != term:
                continue
            left = i == 0 or not lowered[i - 1].isalnum()
            right = i + k == n or not lowered[i + k].isalnum()
            if left and right:
                return True
    return False


FILLER = st.sampled_from(["the", "a", "whitewash", "racetrack", "browns", "gayly", "so"])
TERMS = st.sampled_from(idn.STOCK_TERMS)


class TestProperties:
    @given(st.lists(st.one_of(FILLER, TERMS), max_size=8))
    def test_matches_brute_force_oracle(self, words):
        text = " ".join(words)
        lex = idn.default_terms()
        assert idn.detect(text, lex).present == brute_force_present(text, lex.terms)

    @given(st.lists(st.one_of(FILLER, TERMS), max_size=8))
    def test_case_invariance(self, words):
        text = " ".join(words)
        lex = idn.default_terms()
        assert idn.detect(text, lex).present == idn.detect(text.upper(), lex).present

    @given(st.lists(st.one_of(FILLER, TERMS), max_size=8))
    def test_whole_word_soundness(self, words):
        text = " ".join(words)
        lex = idn.default_terms()
        found = idn.detect(text, lex).terms
        assert len(set(found)) == len(found)
        for term in lex.terms:
            assert (term in found) == brute_force_present(text, (term,))

    @given(st.lists(st.one_of(FILLER, TERMS), max_size=8))
    def test_monotone_in_lexicon(self, words):
        text = " ".join(words)
        small = idn.IdentityLexicon(("muslim", "gay"))
        big = idn.default_terms()
        if idn.detect(text, small).present:
            assert idn.detect(text, big).present


# The stock list, the curated list, and terms with punctuation inside, one a
# prefix of another.
LEXICONS = (
    idn.default_terms(),
    idn.load_terms(idn.CURATED_TERMS_FILE),
    idn.IdentityLexicon(("two-spirit", "o'neil", "jew", "jews", "women")),
)
PIECES = ("two-spirit", "Two-Spirit", "two", "spirit", "o'neil", "O'NEIL", "(((jews)))",
          "jew", "Jewish", "women-only", "muslim's", "İ", "ǅ", "ß", "é", "x", "2", "-",
          "'", "+", ",", " ", "\n")
TEXTS = st.one_of(st.text(), st.lists(st.sampled_from(PIECES), max_size=12).map("".join))


def held_terms(text, lexicon):
    """The lexicon terms that some ``word_split`` token of ``text`` holds."""
    tokens = word_split(text)
    return {t for t in lexicon.terms if oracles.term_holders(tokens, (t,))}


class TestOneIdentityNotion:
    """The gate opens on the terms ``detect`` finds in the text; the occlusion
    regularizer hides the tokens that hold them. The two agree."""

    @settings(max_examples=400)
    @given(TEXTS)
    @example("two-spirit's (((jews))) o'neil-ish")
    @example("İwomen ǅjew x-two-spirit-x")
    def test_detect_finds_the_terms_the_tokens_hold(self, text):
        for lexicon in LEXICONS:
            assert set(idn.detect(text, lexicon).terms) == held_terms(text, lexicon)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(TEXTS, min_size=1, max_size=6), st.sampled_from([3, 5, 16]))
    @example(["muslim's view", "(((jews)))", "a b c d e f women"], 5)
    def test_an_open_gate_has_a_token_to_hide(self, texts, max_len):
        comments = [Comment(f"c{i}", text, Label.TOXIC) for i, text in enumerate(texts)]
        vocab = build_vocab(texts)
        for lexicon in LEXICONS:
            prepared = tr.prepare_examples(comments, vocab, sj.default_lexicon(), lexicon,
                                           max_len, AugmentMode.SS)
            hidden = np.diff(prepared.offsets)
            for text, gate, n in zip(texts, prepared.data.kmask[:, -1], hidden):
                if gate and len(word_split(text)) <= max_len - 2:
                    assert n >= 1, text


class TestOneScan:
    """``detect``'s ``holders`` are the tokens the occlusion regularizer hid
    when it scanned the tokens a second time (``oracles.term_holders``), and
    ``prepare_examples`` reads its occlusion positions off them."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(TEXTS, min_size=1, max_size=6), st.sampled_from([3, 5, 16]))
    @example(["muslim's view", "(((jews))) islam,jews", "a b c d e f women"], 5)
    @example(["two-spirit's (((jews))) o'neil-ish", "İwomen ǅjew x-two-spirit-x"], 3)
    def test_holders_and_positions_equal_the_second_scan(self, texts, max_len):
        comments = [Comment(f"c{i}", text, Label.TOXIC) for i, text in enumerate(texts)]
        vocab = build_vocab(texts)
        for lexicon in LEXICONS:
            for text in texts:
                assert idn.detect(text, lexicon).holders == \
                    tuple(oracles.term_holders(word_split(text), lexicon.terms))
            prepared = tr.prepare_examples(comments, vocab, sj.default_lexicon(), lexicon,
                                           max_len, AugmentMode.SS)
            rows = oracles.prepare_rows(comments, vocab, sj.default_lexicon(), lexicon,
                                        max_len, AugmentMode.SS)
            offsets, positions = oracles.identity_csr(rows)
            for got, want in ((prepared.offsets, offsets), (prepared.positions, positions)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestCoverage:
    def test_half(self):
        comments = ["the women spoke", "the meeting adjourned"]
        assert idn.coverage(comments, idn.default_terms()) == 0.5

    def test_four_decimal_rounding(self):
        comments = ["gay rights", "weather report", "tax season"]
        assert idn.coverage(comments, idn.default_terms()) == 0.3333

    def test_empty_dataset(self):
        with pytest.raises(ContractError, match="coverage needs at least one comment"):
            idn.coverage([], idn.default_terms())

    def test_empty_term_lexicon(self):
        lex = idn.IdentityLexicon(())
        assert idn.coverage(["anything at all"], lex) == 0.0


class TestLoadTerms:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("# my terms\nAlpha\nbeta\nalpha\n\n")
        lex = idn.load_terms(path)
        assert lex.terms == ("alpha", "beta")

    def test_file_without_terms(self, tmp_path):
        # A list built in code may be empty (test_empty_term_lexicon); a
        # file of comments and blank lines is a mistake.
        path = tmp_path / "terms.txt"
        path.write_text("# my terms\n\n#women\n")
        with pytest.raises(ContractError) as caught:
            idn.load_terms(path)
        assert str(caught.value) == f"identity term file {path} contains no terms"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ContractError, match="^identity term file not found: "):
            idn.load_terms(tmp_path / "nope.txt")

    def test_refused_term_names_the_file(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("women\nc++\n", encoding="utf-8")
        with pytest.raises(ContractError) as caught:
            idn.load_terms(path)
        assert str(caught.value) == (f"identity term file {path}: identity term must start "
                                     "and end with a letter or digit: 'c++'")

    def test_curated_list_adds_democrat(self):
        terms = idn.load_terms(idn.CURATED_TERMS_FILE).terms
        assert "democrat" in terms
        assert "democat" in terms
        assert len(terms) == 26
        for term in idn.STOCK_TERMS:
            assert term in terms
