"""Inference through a workspace: ``encoder.forward`` writing its
activations into buffers the caller keeps, and ``trainer.predict_batch``
running its batches widest first through one of them.

Every result must be the same bits as the pass without a workspace:
``predict_batch`` against the ascending loop frozen in ``oracles``, and a
batch run after a wider one against its own fresh pass, so that nothing a
larger batch left in a buffer reaches a smaller one's logits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsense import encoder as enc
from subsense import trainer as tr
from subsense.errors import ContractError

import oracles


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def model(n_layers, max_len, seed):
    """A small config and parameters moved off their init."""
    config = enc.ModelConfig(max_len=max_len, vocab_size=12, d_model=8, n_heads=2,
                             n_layers=n_layers, d_ff=16, dropout_rate=0.1, seed=seed)
    rng = np.random.default_rng(seed)
    params = {name: tensor + rng.normal(scale=0.5, size=tensor.shape)
              for name, tensor in enc.init(config).items()}
    return config, params


def rows_batch(rng, extents, gate):
    """A plain batch whose rows attend their first ``extents`` positions and,
    where ``gate`` is set, the slot."""
    extents = np.asarray(extents, dtype=np.int32)
    width = int(extents.max())
    real = np.arange(width) < extents[:, None]
    ids = np.where(real, rng.integers(1, 12, size=real.shape), 0).astype(np.int32)
    kmask = np.concatenate((real, np.asarray(gate, dtype=bool)[:, None]), axis=1)
    return enc.Batch(ids, rng.random(len(extents)), kmask, extents)


@settings(max_examples=60, deadline=None)
@given(n_layers=st.integers(0, 3), max_len=st.integers(3, 20),
       batch_size=st.sampled_from([1, 7, 64]), seed=st.integers(0, 2**16),
       data=st.data())
def test_predict_batch_matches_ascending_loop(n_layers, max_len, batch_size, seed, data):
    """Labels and toxic probabilities equal the ascending loop's bit for bit,
    for rows of any width up to max_len, the slot gate open or closed."""
    n = data.draw(st.integers(1, 150), label="rows")
    extents = data.draw(st.lists(st.integers(1, max_len), min_size=n, max_size=n),
                        label="extents")
    gate = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="gate")
    config, params = model(n_layers, max_len, seed)
    batch = rows_batch(np.random.default_rng(seed), extents, gate)
    preds, probs = tr.predict_batch(params, config, batch, batch_size=batch_size)
    want_preds, want_probs = oracles.predict_batch(params, config, batch, batch_size=batch_size)
    assert preds == want_preds
    assert same_bits(probs, want_probs)


@pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
def test_narrow_batch_after_wide_one_sees_no_stale_buffer(n_layers):
    """A wide batch, then narrower ones, then a wider one, all through one
    workspace: each gives its fresh pass's logits bit for bit."""
    config, params = model(n_layers, 16, n_layers)
    rng = np.random.default_rng(n_layers)
    batches = [rows_batch(rng, rng.integers(1, 17, size=40), rng.random(40) < 0.5),
               rows_batch(rng, rng.integers(1, 5, size=9), rng.random(9) < 0.5),
               rows_batch(rng, [1], [True]),
               rows_batch(rng, [16] * 50, rng.random(50) < 0.5)]
    workspace = {}
    for batch in batches:
        logits, cache = enc.forward(batch, params, config, workspace=workspace)
        assert cache is None
        assert same_bits(logits, enc.forward(batch, params, config)[0])
    assert workspace  # the buffers are there to be reused


@pytest.mark.parametrize("n_layers", [0, 1, 2])
def test_variants_through_a_workspace(n_layers):
    """A batch of key-mask variants (``src``) runs through a workspace: the
    same bits as without one, and each variant's logits those of its keys
    run as a plain row, to rounding."""
    config, params = model(n_layers, 12, 5 + n_layers)
    rng = np.random.default_rng(n_layers)
    rows = rows_batch(rng, [12, 7, 3, 1], [True, False, True, True])
    src = np.array([0, 0, 0, 1, 1, 2, 3])
    kmask = rows.kmask[src]
    kmask[[1, 2, 4], [3, 11, 5]] = False  # one occluded key each
    variants = enc.Batch(rows.ids, rows.fill, kmask, rows.extent, src)
    workspace = {}
    enc.forward(rows_batch(rng, [12] * 30, [True] * 30), params, config, workspace=workspace)
    logits, _ = enc.forward(variants, params, config, workspace=workspace)
    assert same_bits(logits, enc.forward(variants, params, config)[0])
    plain = enc.Batch(rows.ids[src], rows.fill[src], kmask, rows.extent[src])
    assert np.max(np.abs(logits - enc.forward(plain, params, config)[0])) <= 1e-12


def test_train_mode_takes_no_workspace():
    config, params = model(1, 8, 0)
    batch = rows_batch(np.random.default_rng(0), [8, 3], [True, False])
    with pytest.raises(ContractError, match="workspace"):
        enc.forward(batch, params, config, train_mode=True, workspace={})
