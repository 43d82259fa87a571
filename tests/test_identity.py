import pytest
from hypothesis import given
from hypothesis import strategies as st

from subsense import identity as idn
from subsense.errors import ContractError, EmptyDatasetError, ResourceError

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
        assert lex.source_label == "paper-25"

    def test_size_25(self):
        assert len(idn.default_terms()) == 25

    def test_known_members(self):
        lex = idn.default_terms()
        for term in ("muslim", "africans", "transgender", "democat"):
            assert term in lex

    def test_liberal_not_covered(self):
        assert "liberal" not in idn.default_terms()

    def test_membership_is_the_term_list(self):
        lex = idn.IdentityLexicon(("women", "gay", "jews"), "three")
        assert lex.terms == ("women", "gay", "jews")
        for word in ("women", "gay", "jews", "jew", "Women", "", "women ", "gays"):
            assert (word in lex) == (word in lex.terms)
        assert lex == idn.IdentityLexicon(("women", "gay", "jews"), "three")
        assert lex != idn.IdentityLexicon(("jews", "gay", "women"), "three")
        assert hash(lex) == hash(idn.IdentityLexicon(("women", "gay", "jews"), "three"))


class TestLexiconInvariants:
    def test_rejects_uppercase(self):
        with pytest.raises(ContractError):
            idn.IdentityLexicon(("Muslim",), "bad")

    def test_rejects_whitespace(self):
        with pytest.raises(ContractError):
            idn.IdentityLexicon(("two words",), "bad")

    def test_rejects_duplicates(self):
        with pytest.raises(ContractError):
            idn.IdentityLexicon(("gay", "gay"), "bad")


class TestDetect:
    def test_paired_comment_hit(self):
        match = idn.detect(PAIRED_COMMENTS["gay"]["nontoxic"], idn.default_terms())
        assert match.present
        assert "gay" in match.terms

    def test_empty_text(self):
        match = idn.detect("", idn.default_terms())
        assert not match.present
        assert match.matches == ()

    def test_whole_word_boundary(self):
        assert not idn.detect("whitewash the fence", idn.default_terms()).present

    def test_uncovered_identifier(self):
        text = "liberal is just the pc word for rap ist ."
        assert not idn.detect(text, idn.default_terms()).present

    def test_case_insensitive(self):
        match = idn.detect("The MUSLIM community", idn.default_terms())
        assert match.present and match.terms == ("muslim",)

    def test_all_occurrences_reported(self):
        match = idn.detect("gay and gay again", idn.default_terms())
        assert len(match.matches) == 2

    def test_punctuation_boundaries_count(self):
        assert idn.detect("(women)", idn.default_terms()).present

    def test_match_invariant(self):
        with pytest.raises(ContractError):
            idn.IdentityMatch(True, ())


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
        lowered = text.lower()
        for term, (start, end) in idn.detect(text, idn.default_terms()).matches:
            assert lowered[start:end] == term
            assert start == 0 or not lowered[start - 1].isalnum()
            assert end == len(lowered) or not lowered[end].isalnum()

    @given(st.lists(st.one_of(FILLER, TERMS), max_size=8))
    def test_monotone_in_lexicon(self, words):
        text = " ".join(words)
        small = idn.IdentityLexicon(("muslim", "gay"), "small")
        big = idn.default_terms()
        if idn.detect(text, small).present:
            assert idn.detect(text, big).present


class TestCoverage:
    def test_half(self):
        comments = ["the women spoke", "the meeting adjourned"]
        assert idn.coverage(comments, idn.default_terms()) == 0.5

    def test_four_decimal_rounding(self):
        comments = ["gay rights", "weather report", "tax season"]
        assert idn.coverage(comments, idn.default_terms()) == 0.3333

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            idn.coverage([], idn.default_terms())

    def test_empty_term_lexicon(self):
        lex = idn.IdentityLexicon((), "empty")
        assert idn.coverage(["anything at all"], lex) == 0.0


class TestLoadTerms:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("# my terms\nAlpha\nbeta\nalpha\n\n")
        lex = idn.load_terms(path)
        assert lex.terms == ("alpha", "beta")
        assert lex.source_label == "terms.txt"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResourceError):
            idn.load_terms(tmp_path / "nope.txt")

    def test_curated_list_adds_democrat(self):
        lex = idn.load_terms(idn.CURATED_TERMS_FILE)
        assert "democrat" in lex
        assert "democat" in lex
        assert len(lex) == 26
        for term in idn.STOCK_TERMS:
            assert term in lex
