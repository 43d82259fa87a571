import csv
import io
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsense import audit
from subsense import datasets as ds
from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense.errors import ContractError

import oracles
from conftest import DATA_DIR

CORPORA_ENV = "SUBSENSE_DATA_DIR"


def corpora_dir():
    path = os.environ.get(CORPORA_ENV)
    return Path(path) if path else None


class TestConvertRules:
    def test_ws_mapping(self):
        rows = [{"text": "a", "label": "hate"}, {"text": "b", "label": "noHate"}]
        result = ds.convert(ds.DatasetKind.WS, rows)
        assert [c.label for c in result.comments] == [ds.Label.TOXIC, ds.Label.NONTOXIC]

    def test_twitter18k_neither_is_nontoxic(self):
        rows = [{"text": "a", "label": "neither"}]
        result = ds.convert(ds.DatasetKind.TWITTER18K, rows)
        assert result.comments[0].label is ds.Label.NONTOXIC

    def test_twitter18k_toxic_labels(self):
        rows = [{"text": "a", "label": lab} for lab in ("racism", "sexism", "both")]
        result = ds.convert(ds.DatasetKind.TWITTER18K, rows)
        assert all(c.label is ds.Label.TOXIC for c in result.comments)

    def test_twitter42k_drops_spam(self):
        rows = [
            {"text": "a", "label": "abusive"},
            {"text": "b", "label": "spam"},
            {"text": "c", "label": "normal"},
            {"text": "d", "label": "hateful"},
        ]
        result = ds.convert(ds.DatasetKind.TWITTER42K, rows)
        assert result.n_input == 4
        assert result.n_dropped == 1
        assert len(result.comments) == 3
        assert result.n_toxic == 2

    def test_wiki_all_zeros(self):
        row = {"text": "a", **{c: "0" for c in ds.WIKI_LABEL_COLUMNS}}
        result = ds.convert(ds.DatasetKind.WIKI, [row])
        assert result.comments[0].label is ds.Label.NONTOXIC

    def test_wiki_threat_only(self):
        row = {"text": "a", **{c: "0" for c in ds.WIKI_LABEL_COLUMNS}, "threat": "1"}
        result = ds.convert(ds.DatasetKind.WIKI, [row])
        assert result.comments[0].label is ds.Label.TOXIC

    def test_unknown_label_names_row(self):
        rows = [{"text": "a", "label": "hate"}, {"text": "b", "label": "mystery"}]
        with pytest.raises(ContractError, match="row 2"):
            ds.convert(ds.DatasetKind.WS, rows)

    def test_missing_column(self):
        with pytest.raises(ContractError, match="missing column"):
            ds.convert(ds.DatasetKind.WS, [{"text": "a"}])

    def test_wiki_bad_flag_value(self):
        row = {"text": "a", **{c: "0" for c in ds.WIKI_LABEL_COLUMNS}, "insult": "yes"}
        with pytest.raises(ContractError, match="insult"):
            ds.convert(ds.DatasetKind.WIKI, [row])

    def test_ids_generated_when_absent(self):
        result = ds.convert(ds.DatasetKind.WS, [{"text": "a", "label": "hate"}])
        assert result.comments[0].id == "ws-000001"

    def test_conversion_totals_invariant(self):
        with pytest.raises(ContractError):
            ds.ConversionResult((), 3, 1)


class TestConvertFixtures:
    def test_ws_fixture(self):
        result = ds.convert(ds.DatasetKind.WS, ds.load_rows(DATA_DIR / "ws_10.csv"))
        assert result.n_input == 10
        assert len(result.comments) == 10
        assert result.n_toxic == 3
        assert result.n_dropped == 0

    def test_twitter18k_fixture(self):
        result = ds.convert(
            ds.DatasetKind.TWITTER18K, ds.load_rows(DATA_DIR / "twitter18k_10.csv")
        )
        assert (result.n_input, len(result.comments), result.n_toxic) == (10, 10, 5)

    def test_twitter42k_fixture(self):
        result = ds.convert(
            ds.DatasetKind.TWITTER42K, ds.load_rows(DATA_DIR / "twitter42k_10.csv")
        )
        assert (result.n_input, len(result.comments)) == (10, 8)
        assert result.n_dropped == 2
        assert result.n_toxic == 3

    def test_wiki_fixture(self):
        result = ds.convert(ds.DatasetKind.WIKI, ds.load_rows(DATA_DIR / "wiki_10.csv"))
        assert (result.n_input, len(result.comments), result.n_toxic) == (10, 10, 5)


def outcome(read, path):
    """The comments ``read`` returns for ``path``, or the class and message
    of what it raises."""
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


CELLS = st.one_of(
    st.sampled_from(["", " ", "c-7", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "toxic"]),
    st.text(max_size=6),
)
# Cells by column name; a label is most often a valid one.
COLUMN_CELLS = {
    "label": st.sampled_from(["toxic", "nontoxic", " Toxic ", "NONTOXIC", "toxic", "nontoxic",
                              "spam", ""]),
    "id": st.sampled_from(["", " ", "c-1", "c-1", "a,b"]),
}
CANONICAL_HEADERS = st.permutations(["id", "text", "label"])
HEADERS = st.one_of(
    CANONICAL_HEADERS, CANONICAL_HEADERS, CANONICAL_HEADERS, st.none(),
    st.lists(st.sampled_from(["id", "text", "label", "note", "", "Label"]), max_size=5),
)


@st.composite
def canonical_csv_bytes(draw):
    """CSV bytes around the canonical schema: a header that may lack, reorder or
    repeat columns (or no header), rows fitting it or shorter or longer,
    blank lines, quoted commas and newlines, CRLF or LF line ends, a BOM, a
    long tail of rows, and sometimes one byte that is not UTF-8."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
    header = draw(HEADERS)
    rows = [] if header is None else [header]
    for _ in range(draw(st.sampled_from(range(7)))):
        row = [draw(COLUMN_CELLS.get(name, CELLS)) for name in header or ()]
        shape = draw(st.sampled_from(["fit"] * 5 + ["short", "long", "any"]))
        if shape == "short":
            row = row[:draw(st.integers(0, max(len(row) - 1, 0)))]
        elif shape == "long":
            row += draw(st.lists(CELLS, min_size=1, max_size=2))
        elif shape == "any":
            row = draw(st.lists(CELLS, max_size=5))
        rows.append(row)
    if draw(st.booleans()):
        # Past the first 8 KiB the file is decoded only as its rows are read.
        rows += [[{"label": "toxic"}.get(name, "padding " * 6) for name in header or ()]] * 200
    for row in rows:
        if draw(st.integers(0, 4)) == 3:
            writer.writerow([])
        writer.writerow(row)
    data = out.getvalue().encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 3)) == 2:
        at = draw(st.integers(0, len(data)) | st.just(len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestCanonicalIO:
    def test_round_trip(self, tmp_path):
        comments = [
            ds.Comment("a", "plain text, with commas", ds.Label.TOXIC),
            ds.Comment("b", 'quoted "text" here', ds.Label.NONTOXIC),
        ]
        path = tmp_path / "c.csv"
        ds.write_canonical(comments, path)
        assert ds.read_canonical(path) == comments

    def test_missing_file(self, tmp_path):
        with pytest.raises(ContractError, match="^dataset file not found: "):
            ds.load_rows(tmp_path / "nope.csv")
        assert outcome(ds.read_canonical, tmp_path / "nope.csv") == outcome(
            oracles.read_canonical, tmp_path / "nope.csv")

    def test_unknown_label_names_its_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,text,label\na,fine,toxic\nb,hmm,maybe\n", encoding="utf-8")
        with pytest.raises(ContractError, match="^row 2: unknown canonical label 'maybe'$"):
            ds.read_canonical(path)
        assert outcome(ds.read_canonical, path) == outcome(oracles.read_canonical, path)

    def test_field_past_the_csv_size_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("id,text,label\na," + "x" * 200_000 + ",toxic\n", encoding="utf-8")
        for read in (ds.read_canonical, ds.load_rows, oracles.read_canonical):
            with pytest.raises(ContractError, match=" is not a readable CSV: ") as exc:
                read(path)
            assert str(path) in str(exc.value) and "field larger than field limit" in str(exc.value)

    @settings(max_examples=400, deadline=None)
    @given(canonical_csv_bytes())
    def test_reader_matches_the_dict_reader(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "canonical.csv"
        path.write_bytes(data)
        assert outcome(ds.read_canonical, path) == outcome(oracles.read_canonical, path)


class TestSplit:
    def balanced(self, n):
        half = n // 2
        return [ds.Comment(f"t{i}", f"x {i}", ds.Label.TOXIC) for i in range(half)] + [
            ds.Comment(f"n{i}", f"y {i}", ds.Label.NONTOXIC) for i in range(n - half)
        ]

    def test_hundred_balanced(self):
        train, val, test = ds.split(self.balanced(100), seed=0)
        assert (len(train), len(val), len(test)) == (80, 10, 10)
        for part, toxic_expected in ((train, 40), (val, 5), (test, 5)):
            assert sum(1 for c in part if c.label is ds.Label.TOXIC) == toxic_expected

    def test_deterministic(self):
        data = self.balanced(50)
        a = ds.split(data, seed=7)
        b = ds.split(data, seed=7)
        assert a == b
        c = ds.split(data, seed=8)
        assert a != c

    def test_ten_items(self):
        train, val, test = ds.split(self.balanced(10), seed=1)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_partition(self):
        data = self.balanced(37)
        train, val, test = ds.split(data, seed=3)
        ids = [c.id for c in train + val + test]
        assert len(ids) == len(set(ids)) == len(data)
        assert set(ids) == {c.id for c in data}

    def test_too_few_comments(self):
        with pytest.raises(ContractError):
            ds.split(self.balanced(8), seed=0)

    def test_tiny_class_rejected(self):
        data = self.balanced(20)[:19]  # 10 toxic, 9 nontoxic
        data = data[:10] + data[10:12]  # 10 toxic, 2 nontoxic
        with pytest.raises(ContractError, match="nontoxic has only 2 examples; need at least 3"):
            ds.split(data, seed=0)

    @settings(max_examples=40)
    @given(st.integers(min_value=3, max_value=60), st.integers(min_value=3, max_value=60),
           st.integers(min_value=0, max_value=99))
    def test_stratification_within_one(self, n_toxic, n_nontoxic, seed):
        data = [ds.Comment(f"t{i}", "x", ds.Label.TOXIC) for i in range(n_toxic)]
        data += [ds.Comment(f"n{i}", "y", ds.Label.NONTOXIC) for i in range(n_nontoxic)]
        if len(data) < 10:
            return
        train, val, test = ds.split(data, seed=seed)
        n = len(data)
        assert (len(train), len(val)) == (int(0.8 * n), int(0.1 * n))
        assert len(test) == n - len(train) - len(val)
        for count, parts in ((n_toxic, ds.Label.TOXIC), (n_nontoxic, ds.Label.NONTOXIC)):
            for part, frac in ((train, 0.8), (val, 0.1)):
                got = sum(1 for c in part if c.label is parts)
                assert abs(got - frac * count) <= 1.0


class TestSynth:
    def test_rule_holds_without_noise(self):
        corpus = ds.synth_generate(200, theta=0.5, noise=0.0, seed=5)
        for comment in corpus.comments:
            rec = corpus.planted[comment.id]
            expected = (
                ds.Label.TOXIC
                if rec.has_identity and rec.score > 0.5
                else ds.Label.NONTOXIC
            )
            assert comment.label is expected

    def test_no_identity_is_nontoxic(self):
        corpus = ds.synth_generate(200, theta=0.5, noise=0.0, seed=6)
        for comment in corpus.comments:
            if not corpus.planted[comment.id].has_identity:
                assert comment.label is ds.Label.NONTOXIC

    def test_rule_classifier_is_perfect(self):
        corpus = ds.synth_generate(300, theta=0.5, noise=0.0, seed=7)
        terms = idn.default_terms()
        preds = []
        for comment in corpus.comments:
            present = idn.detect(comment.text, terms).present
            s = sj.score(comment.text, corpus.lexicon).value
            preds.append(
                ds.Label.TOXIC if present and s > 0.5 else ds.Label.NONTOXIC
            )
        golds = [c.label for c in corpus.comments]
        assert audit.f1(audit.confusion(preds, golds)) == 1.0

    def test_score_reproduces_planted_value_exactly(self):
        corpus = ds.synth_generate(150, theta=0.5, noise=0.0, seed=8)
        for comment in corpus.comments:
            got = sj.score(comment.text, corpus.lexicon)
            assert got.value == corpus.planted[comment.id].score
            assert len(list(sj._hits(tp.word_split(comment.text), corpus.lexicon))) == 1

    def test_carriers_fall_out_of_vocab(self):
        corpus = ds.synth_generate(150, theta=0.5, noise=0.0, seed=9)
        vocab = tp.build_vocab(corpus.comments, max_size=500, min_freq=2)
        for i in range(len(corpus.comments)):
            assert f"opw{i:05d}" not in vocab.token_to_id

    def test_noise_flips_some_labels(self):
        corpus = ds.synth_generate(400, theta=0.5, noise=0.2, seed=10)
        rule = {cid: rec.has_identity and rec.score > 0.5 for cid, rec in corpus.planted.items()}
        flipped = sum(1 for c in corpus.comments if rule[c.id] != (c.label is ds.Label.TOXIC))
        assert 0 < flipped < 400
        assert flipped == pytest.approx(80, abs=40)

    def test_coverage_matches_planted_identity_rate(self):
        corpus = ds.synth_generate(250, theta=0.5, noise=0.0, seed=11)
        planted_rate = Fraction(
            sum(1 for r in corpus.planted.values() if r.has_identity), 250
        )
        got = idn.coverage(list(corpus.comments), idn.default_terms())
        assert got == float(round(planted_rate, 4))

    def test_preconditions(self):
        with pytest.raises(ContractError):
            ds.synth_generate(50, 0.5, 0.0, 1)
        with pytest.raises(ContractError):
            ds.synth_generate(200, 1.5, 0.0, 1)
        with pytest.raises(ContractError):
            ds.synth_generate(200, 0.5, 0.7, 1)


@pytest.mark.skipif(corpora_dir() is None, reason=f"{CORPORA_ENV} not set")
class TestRealCorpora:
    """Conditional checks against the public corpora, normalised to the
    documented schemas and placed under $SUBSENSE_DATA_DIR."""

    def test_twitter42k_counts(self):
        result = ds.convert(
            ds.DatasetKind.TWITTER42K, ds.load_rows(corpora_dir() / "twitter42k.csv")
        )
        assert len(result.comments) == 42314
        assert result.n_toxic == 5705

    def test_twitter18k_counts(self):
        result = ds.convert(
            ds.DatasetKind.TWITTER18K, ds.load_rows(corpora_dir() / "twitter18k.csv")
        )
        assert len(result.comments) == 18625
        assert result.n_toxic == 5814

    def test_wiki_counts(self):
        result = ds.convert(ds.DatasetKind.WIKI, ds.load_rows(corpora_dir() / "wiki.csv"))
        assert len(result.comments) == 159571
        assert result.n_toxic == 16225
