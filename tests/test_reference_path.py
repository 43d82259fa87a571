"""The encoder against its full-sequence reference (``reference_encoder``).

The production encoder trims each batch to the token columns before its
longest row's extent, plus the slot, and computes the last block and the
final norm for the CLS row only. Logits, every parameter gradient and the
slot-fill gradient must match the reference that runs all ``max_len + 1``
positions, to 1e-12 absolute. A train pass hands its dropout masks to the
reference, embedded in full-shape arrays of ones, and must draw them at the
shapes it applies them: the trimmed width plus the slot, and CLS alone in
the last block. The length sweep holds a full-length row, so only the
CLS-only path differs there; the short batches are trimmed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsense import augment as ag
from subsense import encoder as enc
from subsense import textprep as tp

import oracles
import reference_encoder as ref

TOL = 1e-12
VOCAB = tp.Vocab.from_tokens([f"w{i}" for i in range(12)])


def perturbed_params(config, rng):
    """Init, then move every tensor off its init so gains and biases matter."""
    params = enc.init(config)
    for name, tensor in params.items():
        params[name] = tensor + rng.normal(scale=0.1, size=tensor.shape)
    return params


def length_sweep_batch(config, rng):
    """Real lengths from 1 token to full length (every length at short
    max_len, every 7th at long), plus one truncated row, each with the slot
    gate open and closed."""
    full = config.max_len - 2
    batch = []
    for n in [*range(1, full, 1 if full < 20 else 7), full, config.max_len + 3]:
        tokens = [f"w{rng.integers(12)}" for _ in range(n)]
        encoded = oracles.encode(tokens, VOCAB, config.max_len)
        for slot_mask in (0, 1):
            batch.append(oracles.AugmentedExample(encoded, float(rng.random()), slot_mask,
                                                  ag.AugmentMode.SS))
    return batch


def one_token_batch(config, rng):
    """Rows of a single real token, so every batch keeps three token columns."""
    return [
        oracles.AugmentedExample(
            oracles.encode([f"w{rng.integers(12)}"], VOCAB, config.max_len),
            float(rng.random()), slot_mask, ag.AugmentMode.SS)
        for _ in range(3) for slot_mask in (0, 1)
    ]


def occluded_batch(config, rng):
    """Rows short of full length with one real token's mask bit zeroed, the
    way the occlusion regularizer does it. The longest row loses its last
    token, so the mask sum of every row falls short of the longest extent,
    and ``[SEP]`` of the longest row must still be kept."""
    longest = min(config.max_len - 3, 40)
    batch = []
    for n in sorted({1, longest // 2, longest}):
        tokens = [f"w{rng.integers(12)}" for _ in range(n)]
        encoded = oracles.encode(tokens, VOCAB, config.max_len)
        for slot_mask, position in ((0, n), (1, int(rng.integers(1, n + 1)))):
            ex = oracles.AugmentedExample(encoded, float(rng.random()), slot_mask,
                                          ag.AugmentMode.SS)
            batch.append(oracles._occlude(ex, position))
    return batch


def max_abs_diff(a, b):
    assert a.shape == b.shape
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def build(n_layers, max_len, make_batch, n_heads=2, seed=None):
    config = enc.ModelConfig(
        max_len=max_len, vocab_size=len(VOCAB), d_model=8, n_heads=n_heads,
        n_layers=n_layers, d_ff=16, dropout_rate=0.1, seed=7,
    )
    rng = np.random.default_rng(100 * n_layers + max_len if seed is None else seed)
    return config, perturbed_params(config, rng), make_batch(config, rng)


def check_inference_logits(config, params, batch):
    logits, _ = enc.forward(oracles.assemble(batch, config), params, config)
    expected, _ = ref.forward(batch, params, config)
    assert max_abs_diff(logits, expected) <= TOL


def applied_mask_shapes(config, batch):
    """The shapes of the dropout masks one train pass over ``batch`` applies,
    in the order it draws them: the embedding, then each block's attention
    and feed-forward, the last block's on CLS alone."""
    b, d = len(batch), config.d_model
    columns = max(1, max(ex.base.extent for ex in batch)) + 1
    shapes = [(b, columns, d)]
    for i in range(config.n_layers):
        shapes += [(b, 1 if i == config.n_layers - 1 else columns, d)] * 2
    return shapes


def full_shape_masks(cache, config):
    """The masks of a production train cache as ``ref.forward`` takes them:
    each embedded in a ``(b, max_len + 1, d)`` array of ones at the columns
    it covers (the kept tokens and the slot, or CLS alone)."""
    b, width = cache["ids"].shape

    def embed(mask):
        cols = [0] if mask.shape[1] == 1 else [*range(width), config.max_len]
        full = np.ones((b, config.seq_len, config.d_model))
        full[:, cols] = mask
        return full

    layers = [(embed(lc["attn_drop"]), embed(lc["ff_drop"])) for lc in cache["layers"]]
    return embed(cache["emb_drop"]), layers


def check_train_logits_and_gradients(config, params, batch):
    rng = np.random.default_rng(5)
    logits, cache = enc.forward(oracles.assemble(batch, config), params, config,
                                train_mode=True, dropout_rng=rng)
    expected, ref_cache = ref.forward(batch, params, config, train_mode=True,
                                      masks=full_shape_masks(cache, config))
    assert max_abs_diff(logits, expected) <= TOL
    # The pass drew exactly its applied shapes, in order, and nothing more.
    drawn = [cache["emb_drop"]] + [lc[key] for lc in cache["layers"]
                                   for key in ("attn_drop", "ff_drop")]
    assert [m.shape for m in drawn] == applied_mask_shapes(config, batch)
    fresh, keep = np.random.default_rng(5), 1.0 - config.dropout_rate
    for mask in drawn:
        assert np.array_equal(mask, (fresh.random(mask.shape) < keep) / keep)
    assert rng.random() == fresh.random()

    upstream = np.random.default_rng(9).normal(size=logits.shape)
    grads, slot_grad = enc.backward(cache, params, config, upstream)
    ref_grads, ref_slot_grad = ref.backward(ref_cache, params, config, upstream)
    assert set(grads) == set(params)
    for name in tuple(params):
        assert max_abs_diff(grads[name], ref_grads[name]) <= TOL, name
    assert max_abs_diff(slot_grad, ref_slot_grad) <= TOL
    assert np.all(slot_grad[0::2] == 0.0)  # gate closed: slot disconnected


@pytest.mark.parametrize("max_len", [6, 128])
@pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
class TestMatchesReference:
    def test_inference_logits(self, n_layers, max_len):
        check_inference_logits(*build(n_layers, max_len, length_sweep_batch))

    def test_train_logits_and_gradients(self, n_layers, max_len):
        check_train_logits_and_gradients(*build(n_layers, max_len, length_sweep_batch))


@pytest.mark.parametrize("make_batch", [one_token_batch, occluded_batch])
@pytest.mark.parametrize("max_len", [6, 128])
@pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
class TestTrimmedMatchesReference:
    def test_batch_is_trimmed(self, n_layers, max_len, make_batch):
        config, _, batch = build(n_layers, max_len, make_batch)
        assembled = oracles.assemble(batch, config)
        ids, kmask = assembled.ids, assembled.kmask
        width = max(ex.base.extent for ex in batch)
        assert ids.shape[1] == width < max_len
        assert kmask.shape[1] == width + 1
        if make_batch is occluded_batch:
            # The width follows the token layout, not the mask sum.
            assert max(ex.base.n_real for ex in batch) < width
            assert kmask[:, width - 1].any()

    def test_inference_logits(self, n_layers, max_len, make_batch):
        check_inference_logits(*build(n_layers, max_len, make_batch))

    def test_train_logits_and_gradients(self, n_layers, max_len, make_batch):
        check_train_logits_and_gradients(*build(n_layers, max_len, make_batch))


def check_variant_logits_and_gradients(config, params, batch, rng):
    """``batch`` as key-mask variants (``variants``), the way the occlusion pass
    runs it: each row once as it is, then once with one real token masked
    off where it has one. The pass runs without dropout, as that one does.
    Logits and every gradient match the reference run over each variant as
    a full example, and the slot-fill gradient summed onto each row."""
    rows = oracles.assemble(batch, config)
    src, positions = [], []
    for row, ex in enumerate(batch):
        src.append(row)
        real = np.flatnonzero(ex.base.mask[1 : ex.base.extent - 1]) + 1  # not CLS or [SEP]
        if len(real):
            src.append(row)
            positions.append(int(rng.choice(real)))
    src = np.array(src)
    repeats = np.flatnonzero(np.diff(src, prepend=-1) == 0)
    kmask = rows.kmask[src]
    kmask[repeats, positions] = False
    variants = [batch[row] for row in src]
    for at, position in zip(repeats, positions):
        variants[at] = oracles._occlude(variants[at], position)
    logits, cache = enc.forward(enc.Batch(rows.ids, rows.fill, kmask, rows.extent,
                                          np.bincount(src)),
                                params, config, train_mode=True)
    expected, ref_cache = ref.forward(variants, params, config, train_mode=True)
    assert max_abs_diff(logits, expected) <= TOL

    upstream = rng.normal(size=logits.shape)
    grads, slot_grad = enc.backward(cache, params, config, upstream)
    ref_grads, ref_slot_grad = ref.backward(ref_cache, params, config, upstream)
    assert set(grads) == set(params)
    for name in tuple(params):
        assert max_abs_diff(grads[name], ref_grads[name]) <= TOL, name
    assert max_abs_diff(slot_grad, np.bincount(src, weights=ref_slot_grad)) <= TOL


@settings(max_examples=40, deadline=None)
@given(n_heads=st.sampled_from([1, 2, 4]), n_layers=st.integers(1, 3),
       max_len=st.sampled_from([6, 24]),
       kind=st.sampled_from(["plain", "occluded", "variants"]), seed=st.integers(0, 2**16))
def test_matches_reference_at_every_head_count(n_heads, n_layers, max_len, kind, seed):
    """At 1, 2 and 4 heads, which the last block slices ``W_k`` and ``W_v``
    into, logits, every gradient and the slot-fill gradient match the
    reference to 1e-12: a length sweep, occluded rows, and occluded rows run
    as key-mask variants of their row, which a 1-layer model gathers inside
    its last block."""
    make_batch = occluded_batch if kind == "occluded" else length_sweep_batch
    config, params, batch = build(n_layers, max_len, make_batch, n_heads, seed)
    if kind == "variants":
        check_variant_logits_and_gradients(config, params, batch, np.random.default_rng(seed))
        return
    check_inference_logits(config, params, batch)
    check_train_logits_and_gradients(config, params, batch)
