"""Attention in blocks of whole batch rows.

``encoder.forward`` computes each layer's attention scores, and GELU, one
block of batch rows at a time, as many rows as fit ``encoder._BLOCK_BYTES``;
``encoder.backward`` recomputes each block's probabilities from the cached
queries and keys. Rows never interact inside attention, so the block size
changes no bit: a budget of one byte (one row per block) must give the
default budget's logits and gradients exactly. The memory guards read buffer
sizes and ``tracemalloc``, never the process's RSS, so they are
deterministic. The last test runs long rows under two BLAS thread counts.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subsense
from subsense import encoder as enc
from subsense import trainer as tr

import oracles


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def model(n_layers, n_heads, max_len, seed, d_model=None):
    """A config and parameters moved off their init."""
    config = enc.ModelConfig(max_len=max_len, vocab_size=12, d_model=d_model or 2 * n_heads,
                             n_heads=n_heads, n_layers=n_layers, d_ff=16, dropout_rate=0.1,
                             seed=seed)
    rng = np.random.default_rng(seed)
    params = {name: tensor + rng.normal(scale=0.5, size=tensor.shape)
              for name, tensor in enc.init(config).items()}
    return config, params


def rows_batch(rng, extents, gate):
    """A plain batch whose rows attend their first ``extents`` positions and,
    where ``gate`` is set, the slot."""
    extents = np.asarray(extents, dtype=np.int32)
    real = np.arange(int(extents.max())) < extents[:, None]
    ids = np.where(real, rng.integers(1, 12, size=real.shape), 0).astype(np.int32)
    kmask = np.concatenate((real, np.asarray(gate, dtype=bool)[:, None]), axis=1)
    return enc.Batch(ids, rng.random(len(extents)), kmask, extents)


def with_variants(rng, batch):
    """``batch`` as key-mask variants: each row once unchanged, then some
    rows again with one token key after CLS masked off."""
    n = len(batch.ids)
    src = np.sort(np.concatenate((np.arange(n), rng.integers(0, n, size=n))))
    kmask = batch.kmask[src]
    repeat = np.flatnonzero((np.diff(src, prepend=-1) == 0) & (batch.extent[src] > 1))
    kmask[repeat, rng.integers(1, batch.extent[src[repeat]])] = False
    return enc.Batch(batch.ids, batch.fill, kmask, batch.extent, np.bincount(src, minlength=n))


def run(batch, params, config, train, seed, workspace):
    """Logits and, in training (dropout on), the gradients and the
    slot-fill gradient of one pass."""
    if not train:
        return enc.forward(batch, params, config, workspace=workspace)[0], None, None
    logits, cache = enc.forward(batch, params, config, train_mode=True,
                                dropout_rng=np.random.default_rng(seed))
    dlogits = np.random.default_rng(seed + 1).normal(size=logits.shape)
    grads, slot_grad = enc.backward(cache, params, config, dlogits)
    return logits, grads, slot_grad


@settings(max_examples=80, deadline=None)
@given(n_layers=st.integers(0, 3), n_heads=st.integers(1, 4), max_len=st.integers(3, 24),
       budget=st.one_of(st.just(1), st.integers(1, 1 << 16)), variants=st.booleans(),
       mode=st.sampled_from(["train", "fresh", "workspace"]), seed=st.integers(0, 2**16),
       data=st.data())
def test_block_budget_changes_no_bit(n_layers, n_heads, max_len, budget, variants, mode,
                                     seed, data):
    """Logits, every gradient and the slot-fill gradient under a small budget
    (down to one row per block, last block short) are the default budget's
    bits: plain and variant batches, training with dropout, and inference
    with and without a used workspace."""
    n = data.draw(st.integers(1, 40), label="rows")
    extents = data.draw(st.lists(st.integers(1, max_len), min_size=n, max_size=n),
                        label="extents")
    config, params = model(n_layers, n_heads, max_len, seed)
    rng = np.random.default_rng(seed)
    batch = rows_batch(rng, extents, rng.random(n) < 0.5)
    if variants:
        batch = with_variants(rng, batch)
    train = mode == "train"

    def workspace():
        if mode != "workspace":
            return None
        used = {}  # a wider batch left its values in every buffer
        enc.forward(rows_batch(rng, [max_len] * 50, [True] * 50), params, config,
                    workspace=used)
        return used

    want = run(batch, params, config, train, seed, workspace())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enc, "_BLOCK_BYTES", budget)
        got = run(batch, params, config, train, seed, workspace())
    assert same_bits(got[0], want[0])
    if train:
        assert list(got[1]) == list(want[1])
        assert all(same_bits(got[1][name], want[1][name]) for name in want[1])
        assert same_bits(got[2], want[2])


WIDE = 256  # max_len: width + 1 = 257 key columns, so one row's scores pass the budget


def wide_rows(n, seed):
    rng = np.random.default_rng(seed)
    extents = np.concatenate(([WIDE], rng.integers(100, WIDE + 1, size=n - 1)))
    return rows_batch(rng, extents, rng.random(n) < 0.5)


def test_predict_batch_splits_attention_and_matches_ascending_loop():
    """At 4 heads and 257 columns one row's scores take more than the
    budget, so every batch runs one row per block: labels and ``p_toxic``
    still equal the ascending loop's bit for bit."""
    config, params = model(2, 4, WIDE, 3, d_model=8)
    assert 4 * (WIDE + 1) ** 2 * 8 > enc._BLOCK_BYTES
    batch = wide_rows(20, 3)
    got = tr.predict_batch(params, config, batch, batch_size=8)
    assert got == oracles.predict_batch(params, config, batch, batch_size=8)


def test_predict_batch_scores_buffer_holds_one_block(monkeypatch):
    """After ``predict_batch`` at 257 columns, the workspace's scores buffer
    holds one block: at most the budget, or one row's heads if more."""
    workspaces = []
    forward = tr.forward

    def spy(*args, workspace=None, **kwargs):
        workspaces.append(workspace)
        return forward(*args, workspace=workspace, **kwargs)

    monkeypatch.setattr(tr, "forward", spy)
    config, params = model(2, 4, WIDE, 4, d_model=8)
    tr.predict_batch(params, config, wide_rows(24, 4), batch_size=8)
    (workspace,) = {id(w): w for w in workspaces}.values()
    one_row = config.n_heads * (WIDE + 1) ** 2 * 8
    assert workspace["scores"].nbytes <= max(enc._BLOCK_BYTES, one_row)


def test_train_step_holds_no_full_attention_tensor():
    """One train-mode forward and backward of 8 rows at 257 columns peaks
    (``tracemalloc``) below what the whole ``(rows, heads, 257, 257)``
    probability tensor alone would take."""
    config, params = model(2, 4, WIDE, 5, d_model=8)
    batch = wide_rows(8, 5)
    tracemalloc.start()
    try:
        logits, cache = enc.forward(batch, params, config, train_mode=True,
                                    dropout_rng=np.random.default_rng(5))
        enc.backward(cache, params, config, np.ones_like(logits))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * config.n_heads * (WIDE + 1) ** 2 * 8


_THREADED_PREDICT = """
import json, sys
import numpy as np
from subsense import encoder as enc, trainer as tr
config = enc.ModelConfig(max_len=400, vocab_size=50, seed=0)
rng = np.random.default_rng(2)
params = {name: t + rng.normal(scale=0.3, size=t.shape) for name, t in enc.init(config).items()}
extent = rng.integers(100, 401, size=6).astype(np.int32)
real = np.arange(400) < extent[:, None]
ids = np.where(real, rng.integers(4, 50, size=real.shape), 0).astype(np.int32)
kmask = np.concatenate((real, rng.random((6, 1)) < 0.5), axis=1)
labels, p_toxic = tr.predict_batch(params, config, enc.Batch(ids, rng.random(6), kmask, extent))
json.dump({"labels": [int(label) for label in labels], "p_toxic": p_toxic}, sys.stdout)
"""


def test_labels_repeat_across_blas_thread_counts():
    """``predict_batch`` of six fixed max_len-400 rows under the default
    model, in two processes with ``OPENBLAS_NUM_THREADS`` 1 and 2, gives the
    same labels. The bits need not repeat: at 401 columns a single product
    can round differently with two threads (max_len 128 and below kept
    their bits on a 2-vCPU x86 VM with OpenBLAS 0.3.31), so ``p_toxic`` is
    compared to rounding level."""
    src = str(Path(subsense.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _THREADED_PREDICT], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        results.append(json.loads(out))
    one, two = results
    assert one["labels"] == two["labels"]
    assert len(set(one["labels"])) == 2  # both classes occur, so the labels say something
    assert np.max(np.abs(np.subtract(one["p_toxic"], two["p_toxic"]))) <= 1e-9
