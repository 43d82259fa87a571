"""What eval and audit hold per comment, and what inference allocates.

``audit`` reads predictions.csv one row at a time, in step with the test
CSV's comments, and keeps of each row only the prediction and the audit
features; ``prepare_examples`` collects the token ids in an int32 buffer.
An inference pass through a workspace it has sized writes every activation
into it and gathers the token embedding in blocks of rows.
The guards read ``tracemalloc``, never the process's RSS, so they are
deterministic; each bound sits between what the list-holding versions of
these readers took and what they take now.
"""

import csv
import random
import tracemalloc

import numpy as np

from subsense import cli, identity, subjectivity, textprep, trainer
from subsense import encoder as enc
from subsense import datasets as ds
from subsense.augment import AugmentMode


def traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated (``tracemalloc``)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_audit_reads_predictions_row_by_row(tmp_path):
    """Reading 5,000 predictions peaks below half of what the list of their
    parsed rows alone takes."""
    rng = random.Random(0)
    comments = [ds.Comment(f"c{i}", "text", ds.Label.TOXIC) for i in range(5000)]
    path = tmp_path / "predictions.csv"
    cli._write_predictions(
        path, "# tag", comments, [rng.choice(list(ds.Label)) for _ in comments],
        [rng.random() for _ in comments],
        [(rng.random(), rng.choice([(), (), ("women",), ("muslim", "gay")])) for _ in comments])

    def all_rows():
        with open(path, newline="", encoding="utf-8") as fh:
            fh.readline()
            return list(csv.reader(fh))

    rows, rows_cost = traced_peak(all_rows)
    assert len(rows) == 1 + len(comments)
    (preds, features), peak = traced_peak(lambda: cli._read_predictions(path, "# tag", comments))
    assert len(preds) == len(features) == len(comments)
    assert peak < rows_cost / 2


def test_prepare_examples_bytes_per_id_at_max_len_400():
    """The feature pass over 1,000 comments of 100-300 tokens at max_len 400
    peaks below 13 bytes per token id, the columns it returns included.
    Holding the ids as a list of Python ints, then an int64 copy, took about
    20 bytes per id here; the int32 buffer beside an ``(n, width)`` mask
    temporary took 13.8, and the mask written into the key mask's token
    columns takes 12.4."""
    rng = random.Random(1)
    words = [f"w{i}" for i in range(3000)] + ["women", "muslim", "good", "bad", "not"]
    texts = [" ".join(rng.choice(words) for _ in range(rng.randint(100, 300)))
             for _ in range(1000)]
    comments = [ds.Comment(f"c{i}", text, list(ds.Label)[i % 2]) for i, text in enumerate(texts)]
    vocab = textprep.build_vocab(texts, max_size=2000)
    lexicon = subjectivity.load_lexicon(subjectivity.DEFAULT_LEXICON_XML)
    terms = identity.default_terms()
    prepared, peak = traced_peak(lambda: trainer.prepare_examples(
        comments, vocab, lexicon, terms, 400, AugmentMode.SS))
    n_ids = int(prepared.data.extent.sum())
    assert n_ids > 150_000
    assert peak / n_ids < 13


def test_warm_inference_pass_at_max_len_400():
    """A second pass of 64 rows at max_len 400 (d_model 64, 2 layers)
    through the workspace the first one sized peaks below a quarter of one
    slot, ``rows * (width + 1) * d_model`` floats. Gathering the whole
    token embedding at once took a full slot; a block of rows takes 0.08."""
    config = enc.ModelConfig(max_len=400, vocab_size=500, d_model=64, n_heads=4, n_layers=2)
    params = enc.init(config)
    rng = np.random.default_rng(0)
    batch = enc.Batch(rng.integers(4, 500, size=(64, 400), dtype=np.int32), rng.random(64),
                      np.ones((64, 401), dtype=bool), np.full(64, 400, dtype=np.int32))
    workspace = {}
    want, _ = enc.forward(batch, params, config, workspace=workspace)
    (logits, _), peak = traced_peak(lambda: enc.forward(batch, params, config,
                                                        workspace=workspace))
    assert logits.tobytes() == want.tobytes()
    assert peak < 64 * 401 * 64 * 8 / 4
