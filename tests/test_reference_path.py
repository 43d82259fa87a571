"""The encoder against its full-sequence reference (``reference_encoder``).

The production encoder trims each batch to the token columns before its
longest row's extent, plus the slot, and computes the last block and the
final norm for the CLS row only. Logits, every parameter gradient and the
slot-fill gradient must match the reference that runs all ``max_len + 1``
positions, to 1e-12 absolute, and a dropout pass must leave the random
stream where the reference leaves it. The length sweep holds a full-length
row, so only the CLS-only path differs there; the short batches are trimmed.
"""

import numpy as np
import pytest

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
        encoded = tp.encode(tokens, VOCAB, config.max_len)
        for slot_mask in (0, 1):
            batch.append(ag.AugmentedExample(encoded, float(rng.random()), slot_mask,
                                             ag.AugmentMode.SS))
    return batch


def one_token_batch(config, rng):
    """Rows of a single real token, so every batch keeps three token columns."""
    return [
        ag.AugmentedExample(tp.encode([f"w{rng.integers(12)}"], VOCAB, config.max_len),
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
        encoded = tp.encode(tokens, VOCAB, config.max_len)
        for slot_mask, position in ((0, n), (1, int(rng.integers(1, n + 1)))):
            ex = ag.AugmentedExample(encoded, float(rng.random()), slot_mask,
                                     ag.AugmentMode.SS)
            batch.append(oracles._occlude(ex, position))
    return batch


def max_abs_diff(a, b):
    assert a.shape == b.shape
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def build(n_layers, max_len, make_batch):
    config = enc.ModelConfig(
        max_len=max_len, vocab_size=len(VOCAB), d_model=8, n_heads=2,
        n_layers=n_layers, d_ff=16, dropout_rate=0.1, seed=7,
    )
    rng = np.random.default_rng(100 * n_layers + max_len)
    return config, perturbed_params(config, rng), make_batch(config, rng)


def check_inference_logits(config, params, batch):
    logits, _ = enc.forward(enc.assemble(batch, config), params, config)
    expected, _ = ref.forward(batch, params, config)
    assert max_abs_diff(logits, expected) <= TOL


def check_train_logits_and_gradients(config, params, batch):
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    logits, cache = enc.forward(enc.assemble(batch, config), params, config,
                                train_mode=True, dropout_rng=rng_new)
    expected, ref_cache = ref.forward(batch, params, config, train_mode=True,
                                      dropout_rng=rng_ref)
    assert max_abs_diff(logits, expected) <= TOL
    # Dropout masks are drawn at full shape, so the stream stays in step.
    assert rng_new.random() == rng_ref.random()

    upstream = np.random.default_rng(9).normal(size=logits.shape)
    grads, slot_grad = enc.backward(cache, params, config, upstream)
    ref_grads, ref_slot_grad = ref.backward(ref_cache, params, config, upstream)
    assert set(grads) == set(params.names())
    for name in params.names():
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
        assembled = enc.assemble(batch, config)
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
