"""Artifacts are written whole or not at all."""

import numpy as np
import pytest

from subsense import datasets as ds
from subsense import encoder as enc
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense import trainer as tr
from subsense.atomic import replacing
from subsense.errors import ContractError


def test_replaces_the_whole_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old contents that are longer\n", encoding="utf-8")
    with replacing(path, "w", encoding="utf-8") as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("existed", [True, False])
def test_failed_write_leaves_the_old_file_and_no_temp(tmp_path, existed):
    path = tmp_path / "checkpoint.bin"
    if existed:
        path.write_bytes(b"previous")
    with pytest.raises(RuntimeError):
        with replacing(path, "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("disk full")
    assert [p.name for p in tmp_path.iterdir()] == (["checkpoint.bin"] if existed else [])
    if existed:
        assert path.read_bytes() == b"previous"


@pytest.mark.parametrize("path", ["", ".", "/"])
def test_path_without_a_file_name_is_refused(path):
    with pytest.raises(ContractError, match="^not a file path: "):
        with replacing(path):
            pass


def test_artifact_writers_leave_only_their_files(tmp_path):
    config = enc.ModelConfig(max_len=5, vocab_size=6, d_model=4, n_heads=2, n_layers=1, d_ff=8)
    params = enc.init(config)
    enc.save_params(params, tmp_path / "checkpoint.bin")
    history = tr.TrainHistory([tr.HistoryEntry(1, 0.5, None, 1e-3, 0)])
    history.to_csv(tmp_path / "history.csv")
    tp.Vocab.from_tokens(["a", "b"]).save(tmp_path / "vocab.txt")
    corpus = ds.synth_generate(100, 0.5, 0.0, 1)
    ds.write_canonical(corpus.comments, tmp_path / "corpus.csv")
    sj.write_lexicon_tsv(corpus.lexicon, tmp_path / "lexicon.tsv")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "checkpoint.bin", "corpus.csv", "history.csv", "lexicon.tsv", "vocab.txt"]
    assert ds.read_canonical(tmp_path / "corpus.csv") == list(corpus.comments)
    assert sj.load_lexicon(tmp_path / "lexicon.tsv").means == corpus.lexicon.means
    assert len(corpus.lexicon.means) == 100
    loaded = enc.load_params(tmp_path / "checkpoint.bin", config)
    for name, tensor in params.items():
        assert np.array_equal(loaded[name], tensor)
