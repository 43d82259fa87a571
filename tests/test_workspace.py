"""Inference through a workspace: ``encoder.forward`` writing its
activations into buffers the caller keeps, and ``trainer.predict_batch``
running its batches largest first through one of them.

Every result must be the same bits as the pass without a workspace:
``predict_batch`` against the ascending loop frozen in ``oracles``, and a
batch run after a wider one against its own fresh pass, so that nothing a
larger batch left in a buffer reaches a smaller one's logits. The
workspace shares its buffers by liveness, Q, K and V with the attention
output and the feed-forward hidden, so the cases cover a feed-forward wider
than ``2 * d_model`` (the hidden runs past V's slot), 0 to 3 layers and
key-mask variants that outnumber their rows (they size the slots).
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


WIDE_FF = 40  # more than 2 * d_model: the feed-forward hidden runs past V's slot


def model(n_layers, max_len, seed, d_ff=16):
    """A small config and parameters moved off their init."""
    config = enc.ModelConfig(max_len=max_len, vocab_size=12, d_model=8, n_heads=2,
                             n_layers=n_layers, d_ff=d_ff, dropout_rate=0.1, seed=seed)
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
       d_ff=st.sampled_from([16, WIDE_FF]), data=st.data())
def test_predict_batch_matches_ascending_loop(n_layers, max_len, batch_size, seed, d_ff, data):
    """Labels and toxic probabilities equal the ascending loop's bit for bit,
    for rows of any width up to max_len, the slot gate open or closed."""
    n = data.draw(st.integers(1, 150), label="rows")
    extents = data.draw(st.lists(st.integers(1, max_len), min_size=n, max_size=n),
                        label="extents")
    gate = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="gate")
    config, params = model(n_layers, max_len, seed, d_ff)
    batch = rows_batch(np.random.default_rng(seed), extents, gate)
    preds, probs = tr.predict_batch(params, config, batch, batch_size=batch_size)
    want_preds, want_probs = oracles.predict_batch(params, config, batch, batch_size=batch_size)
    assert preds == want_preds
    assert same_bits(probs, want_probs)


@pytest.mark.parametrize("n_layers, d_ff", [
    *(pytest.param(n, 16, id=str(n)) for n in range(4)),
    *(pytest.param(n, WIDE_FF, id=f"{n}-wide-ff") for n in range(4)),
])
def test_narrow_batch_after_wide_one_sees_no_stale_buffer(n_layers, d_ff):
    """A wide batch, then narrower ones, then a wider one, all through one
    workspace: each gives its fresh pass's logits bit for bit."""
    config, params = model(n_layers, 16, n_layers, d_ff)
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


@pytest.mark.parametrize("n_layers, d_ff, counts, plain_first", [
    *(pytest.param(n, 16, [3, 2, 1, 1], True, id=str(n)) for n in range(4)),
    # 40 variants of 4 rows, first into an empty workspace: they size it.
    *(pytest.param(n, d_ff, [25, 3, 1, 11], False, id=f"{n}-many-variants-{d_ff}")
      for n in range(4) for d_ff in (16, WIDE_FF)),
])
def test_variants_through_a_workspace(n_layers, d_ff, counts, plain_first):
    """A batch of key-mask variants (``variants``) runs through a workspace,
    before or after a wider plain batch of 30 rows: both give the same bits
    as without one, and each variant's logits are those of its keys run as
    a plain row, to rounding."""
    config, params = model(n_layers, 12, 5 + n_layers, d_ff)
    rng = np.random.default_rng(n_layers)
    rows = rows_batch(rng, [12, 7, 3, 1], [True, False, True, True])
    src = np.repeat(np.arange(4), counts)
    kmask = rows.kmask[src]
    kmask[[1, 2, 4], [3, 11, 5]] = False  # one occluded key each
    variants = enc.Batch(rows.ids, rows.fill, kmask, rows.extent, np.array(counts))
    wide = rows_batch(rng, [12] * 30, [True] * 30)
    workspace = {}
    for batch in (wide, variants) if plain_first else (variants, wide):
        assert same_bits(enc.forward(batch, params, config, workspace=workspace)[0],
                         enc.forward(batch, params, config)[0])
    logits = enc.forward(variants, params, config)[0]
    plain = enc.Batch(rows.ids[src], rows.fill[src], kmask, rows.extent[src])
    assert np.max(np.abs(logits - enc.forward(plain, params, config)[0])) <= 1e-12


def test_predict_batch_sizes_every_buffer_at_its_first_call(monkeypatch):
    """150 rows in batches of 64: the 22 widest form the partial batch, yet
    the first ``forward`` sizes every workspace buffer and no later call
    replaces one with a larger one."""
    seen = []
    forward = tr.forward

    def spy(*args, workspace=None, **kwargs):
        out = forward(*args, workspace=workspace, **kwargs)
        seen.append(dict(workspace))
        return out

    monkeypatch.setattr(tr, "forward", spy)
    config, params = model(2, 40, 9)
    rng = np.random.default_rng(9)
    batch = rows_batch(rng, rng.integers(1, 41, size=150), rng.random(150) < 0.5)
    got = tr.predict_batch(params, config, batch, batch_size=64)
    assert got == oracles.predict_batch(params, config, batch, batch_size=64)
    first, *later = seen
    assert len(later) == 2
    for buffers in later:
        assert buffers.keys() == first.keys()
        assert all(buffers[name] is first[name] for name in first)


@pytest.mark.parametrize("d_ff", [128, 320])
def test_workspace_holds_its_live_set_at_max_len_400(d_ff):
    """After a pass of 32 rows at max_len 400, the workspace holds
    ``3 + max(2, d_ff / d_model)`` slots of ``rows * (width + 1) * d_model``
    floats: h, norm1's output, and Q, K and V, whose slots the feed-forward
    hidden takes over and may run past. Besides, it holds the scores block,
    at most ``_BLOCK_BYTES`` or one row's scores (4 heads at 401 columns
    take 5.1 MB). A buffer per activation held 8 slots and that block at
    d_ff 128."""
    config = enc.ModelConfig(max_len=400, vocab_size=12, d_model=64, n_heads=4, n_layers=2,
                             d_ff=d_ff)
    workspace = {}
    rng = np.random.default_rng(0)
    enc.forward(rows_batch(rng, [400] * 32, [True] * 32), enc.init(config), config,
                workspace=workspace)
    slot = 32 * 401 * 64 * 8
    scores = max(enc._BLOCK_BYTES, 4 * 401 * 401 * 8)
    held = sum(flat.nbytes for flat in workspace.values())
    assert held <= (3 + max(2, d_ff / 64)) * slot + scores


def test_train_mode_takes_no_workspace():
    config, params = model(1, 8, 0)
    batch = rows_batch(np.random.default_rng(0), [8, 3], [True, False])
    with pytest.raises(ContractError, match="workspace"):
        enc.forward(batch, params, config, train_mode=True, workspace={})
