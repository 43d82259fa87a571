import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense import trainer as tr
from subsense.augment import AugmentMode
from subsense.datasets import Comment, Label
from subsense.errors import ContractError, SubsenseError

WORD = st.text(alphabet="abcdefg", min_size=1, max_size=5)


class TestWordSplit:
    def test_punctuation_peeled(self):
        assert tp.word_split("Hello, World") == ["hello", ",", "world"]

    def test_empty(self):
        assert tp.word_split("") == []

    def test_whitespace_collapse(self):
        assert tp.word_split("a  b") == ["a", "b"]

    def test_internal_apostrophe_kept(self):
        assert tp.word_split("don't stop") == ["don't", "stop"]

    def test_wrapped_token(self):
        assert tp.word_split("(fine!)") == ["(", "fine", "!", ")"]

    def test_pure_punctuation(self):
        assert tp.word_split("...") == [".", ".", "."]


class TestBuildVocab:
    def test_frequency_order(self):
        vocab = tp.build_vocab(["a a b"], max_size=6, min_freq=1)
        assert len(vocab) == 6
        assert vocab.token_to_id["a"] == 4
        assert vocab.token_to_id["b"] == 5

    def test_min_freq_threshold(self):
        vocab = tp.build_vocab(["a a b"], max_size=6, min_freq=2)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_min_freq_below_one(self):
        with pytest.raises(ContractError, match="^min_freq must be at least 1$"):
            tp.build_vocab(["a a b"], max_size=6, min_freq=0)

    def test_lexicographic_tie_break(self):
        vocab = tp.build_vocab(["y x"], max_size=5, min_freq=1)
        assert "x" in vocab.token_to_id and "y" not in vocab.token_to_id

    def test_empty_corpus(self):
        with pytest.raises(ContractError, match="cannot build a vocabulary from an empty corpus"):
            tp.build_vocab([], max_size=10)

    def test_accepts_comment_objects(self):
        class Thing:
            text = "hello there"

        vocab = tp.build_vocab([Thing()], max_size=10)
        assert "hello" in vocab.token_to_id

    def test_max_size_guard(self):
        with pytest.raises(ContractError):
            tp.build_vocab(["a"], max_size=4)


class TestVocab:
    def test_reserved_ids(self):
        vocab = tp.build_vocab(["a b"], max_size=10)
        assert vocab.id_to_token[tp.PAD] == "[PAD]"
        assert vocab.id_to_token[tp.UNK] == "[UNK]"
        assert vocab.id_to_token[tp.CLS] == "[CLS]"
        assert vocab.id_to_token[tp.SEP] == "[SEP]"

    def test_unknown_maps_to_unk(self):
        vocab = tp.build_vocab(["a b"], max_size=10)
        assert tp.encode(["zzz"], vocab, 5)[1] == tp.UNK

    def test_save_load_round_trip(self, tmp_path):
        vocab = tp.build_vocab(["c a b a"], max_size=10)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = tp.Vocab.load(path)
        assert loaded.id_to_token == vocab.id_to_token

    @pytest.mark.parametrize("lines", [["a", "[PAD]", "[UNK]", "[CLS]", "[SEP]"],
                                       ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "a", "a"]],
                             ids=["specials-not-first", "duplicate"])
    def test_bad_vocab_file_is_named(self, tmp_path, lines):
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ContractError, match=f"^vocab file {re.escape(str(path))}: "):
            tp.Vocab.load(path)

    def test_missing_vocab_file_is_named_once(self, tmp_path):
        path = tmp_path / "vocab.txt"
        with pytest.raises(SubsenseError, match=f"^vocab file not found: {re.escape(str(path))}$"):
            tp.Vocab.load(path)

    def test_duplicate_token_rejected(self):
        with pytest.raises(ContractError):
            tp.Vocab.from_tokens(["a", "a"])

    def test_special_collision_rejected(self):
        with pytest.raises(ContractError):
            tp.Vocab.from_tokens(["[PAD]"])


class TestEncode:
    def test_layout(self):
        vocab = tp.Vocab.from_tokens(["a"])
        assert tp.encode(["a"], vocab, 5) == [tp.CLS, vocab.token_to_id["a"], tp.SEP]

    def test_head_truncation_to_126(self):
        vocab = tp.Vocab.from_tokens([f"w{i}" for i in range(200)])
        tokens = [f"w{i}" for i in range(200)]
        ids = tp.encode(tokens, vocab, 128)
        assert len(ids) == 128
        assert ids[1] == vocab.token_to_id["w0"]
        assert ids[126] == vocab.token_to_id["w125"]
        assert ids[127] == tp.SEP

    def test_oov_token(self):
        vocab = tp.Vocab.from_tokens(["a"])
        assert tp.encode(["zzz"], vocab, 5)[1] == tp.UNK

    def test_min_length_guard(self):
        vocab = tp.Vocab.from_tokens(["a"])
        with pytest.raises(ContractError):
            tp.encode(["a"], vocab, 2)

    def test_example_invariants(self):
        """A prepared set refuses columns of other lengths, rows longer than
        its max_len and ids outside its vocabulary."""
        vocab = tp.Vocab.from_tokens(["a", "b"])
        comments = [Comment("x", "a b a", Label.TOXIC), Comment("y", "b", Label.NONTOXIC)]
        prepared = tr.prepare_examples(comments, vocab, sj.SubjectivityLexicon(
            [sj.LexiconEntry("a", 0.5)]), idn.default_terms(), 6, AugmentMode.SS)
        data = prepared.data
        for changes in ({"kmask": data.kmask[:, 1:]}, {"fill": data.fill[:1]},
                        {"ids": np.where(data.ids == tp.SEP, len(vocab), data.ids)},
                        {"ids": np.where(data.ids == tp.CLS, -1, data.ids)}):
            with pytest.raises(ContractError):
                dataclasses.replace(prepared, data=dataclasses.replace(data, **changes))
        with pytest.raises(ContractError):
            dataclasses.replace(prepared, max_len=4)
        with pytest.raises(ContractError):
            dataclasses.replace(prepared, vocab_size=len(vocab) - 1)


@st.composite
def token_lists(draw):
    return draw(st.lists(WORD, max_size=20))


class TestProperties:
    @given(token_lists(), st.integers(min_value=3, max_value=24))
    def test_lengths_and_mask_consistency(self, tokens, max_len):
        vocab = tp.build_vocab(["a b c d e f g"], max_size=20)
        ids = tp.encode(tokens, vocab, max_len)
        assert len(ids) == min(len(tokens), max_len - 2) + 2
        assert ids[0] == tp.CLS and ids[-1] == tp.SEP
        assert tp.PAD not in ids
        # In a prepared set the row is padded past its extent, and the token
        # mask holds exactly the positions that are not padding.
        prepared = tr.prepare_examples(
            [Comment("x", " ".join(tokens), Label.TOXIC)], vocab,
            sj.SubjectivityLexicon([sj.LexiconEntry("a", 0.5)]), idn.default_terms(),
            max_len, AugmentMode.SS)
        data = prepared.data
        assert data.extent.tolist() == [len(ids)]
        assert data.ids[0, :len(ids)].tolist() == ids
        assert data.kmask[0, :-1].tolist() == (data.ids[0] != tp.PAD).tolist()
        assert int(data.kmask[0, :-1].sum()) == data.extent[0]
