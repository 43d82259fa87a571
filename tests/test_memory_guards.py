"""What eval and audit hold per comment, what inference allocates, and what
a train-mode pass caches.

``audit`` reads predictions.csv one row at a time, in step with the test
CSV's comments, and keeps of each row only the prediction and the audit
features; ``prepare_examples`` collects the token ids in an int32 buffer.
An inference pass through a workspace it has sized writes every activation
into it and gathers the token embedding in blocks of rows. A train-mode
pass caches each block's GELU tanh in place of its output.
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


def held_bytes(tree):
    """Bytes of the distinct buffers the arrays in ``tree`` (nested dicts,
    lists and tuples) view, each buffer once."""
    owners = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while x.base is not None:
                x = x.base
            owners[id(x)] = x
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)

    walk(tree)
    return sum(x.nbytes for x in owners.values())


def test_train_cache_at_max_len_400():
    """A train-mode pass of 4 full rows at max_len 400 (d_model 64, 4 heads,
    d_ff 128, 2 layers, dropout on) caches no more than it did when it kept
    each block's GELU output; it keeps the tanh instead, of the same shape.
    That figure comes from the shapes below. Above what it caches, the pass
    peaks below two feed-forward hiddens and one ``(rows, width + 1,
    d_model)`` slot: GELU's output, which the backward pass rebuilds, is
    freed once read; keeping it as well would exceed that."""
    b, n, d, d_ff, heads = 4, 401, 64, 128, 4
    config = enc.ModelConfig(max_len=n - 1, vocab_size=500, d_model=d, n_heads=heads,
                             n_layers=2, d_ff=d_ff, dropout_rate=0.1)
    params = enc.init(config)
    rng = np.random.default_rng(0)
    batch = enc.Batch(rng.integers(4, 500, size=(b, n - 1), dtype=np.int32), rng.random(b),
                      np.ones((b, n), dtype=bool), np.full(b, n - 1, dtype=np.int32))
    (_, cache), peak = traced_peak(lambda: enc.forward(
        batch, params, config, train_mode=True, dropout_rng=np.random.default_rng(1)))
    # In floats: the embedding norm's xhat and r and its dropout mask; a full
    # block's norm1 xhat and r, its output, Q, K, V, the merged heads, the
    # attention dropout mask, norm2's xhat and r, its output, the hidden u,
    # GELU's output and the feed-forward dropout mask; the last block's norm1
    # xhat, r and output, then for CLS alone q, u, the scores, the pooled
    # rows, the merged heads, the attention dropout mask, norm2's xhat and r,
    # its output, u, GELU's output and the mask; the final norm's xhat and r
    # and its output. Then the batch's ids, key mask and fill, and the
    # additive key mask.
    floats = (
        2 * b * n * d + b * n
        + 10 * b * n * d + 2 * b * n + 2 * b * n * d_ff
        + 2 * b * n * d + b * n + b * d + 2 * b * heads * d + b * heads * n
        + 5 * b * d + b + 2 * b * d_ff
        + 2 * b * d + b
    )
    before = 8 * floats + 4 * b * (n - 1) + b * n + 8 * b + 8 * b * n
    cached = held_bytes(cache)
    assert cached <= before
    assert all(lc["tanh"].shape == lc["u"].shape for lc in cache["layers"])
    assert peak - cached < 8 * (2 * b * n * d_ff + b * n * d)
