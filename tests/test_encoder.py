import dataclasses
import math

import numpy as np
import pytest

from subsense import augment as ag
from subsense import encoder as enc
from subsense import textprep as tp
from subsense import trainer as tr
from subsense.errors import ConfigError, ContractError, ResourceError

VOCAB = tp.Vocab.from_tokens([f"w{i}" for i in range(12)])


def tiny_config(**overrides):
    base = dict(
        max_len=6, vocab_size=len(VOCAB), d_model=8, n_heads=2,
        n_layers=1, d_ff=16, dropout_rate=0.0, seed=11,
    )
    base.update(overrides)
    return enc.ModelConfig(**base)


def example(tokens, fill, slot_mask, max_len=6, mode=ag.AugmentMode.SS):
    if mode is ag.AugmentMode.BASELINE:
        slot_mask = 0
    encoded = tp.encode(tokens, VOCAB, max_len)
    return ag.AugmentedExample(encoded, fill, slot_mask, mode)


def random_batch(rng, config, size, slot_mask=0):
    batch = []
    for _ in range(size):
        n = int(rng.integers(1, config.max_len - 1))
        tokens = [f"w{rng.integers(12)}" for _ in range(n)]
        batch.append(example(tokens, float(rng.random()), slot_mask, config.max_len))
    return batch


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=65, n_heads=4)

    def test_binary_head_fixed(self):
        with pytest.raises(ConfigError):
            tiny_config(n_classes=3)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            tiny_config(dropout_rate=1.0)

    def test_round_trip(self):
        config = tiny_config()
        assert enc.ModelConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("field,value", [
        ("d_model", "x"), ("n_layers", 1.5), ("max_len", None), ("seed", True),
        ("dropout_rate", "0.1"), ("dropout_rate", False),
    ])
    def test_wrong_type_is_config_error(self, field, value):
        with pytest.raises(ConfigError, match=f"ModelConfig.{field} must be"):
            tiny_config(**{field: value})

    def test_int_fills_float_field(self):
        assert tiny_config(dropout_rate=0).dropout_rate == 0

    def test_from_dict_names_missing_and_unknown_keys(self):
        with pytest.raises(ConfigError, match="lacks max_len, vocab_size"):
            enc.ModelConfig.from_dict({})
        partial = tiny_config().to_dict()
        del partial["seed"]
        with pytest.raises(ConfigError, match="lacks seed"):
            enc.ModelConfig.from_dict(partial)
        with pytest.raises(ConfigError, match="unknown ModelConfig keys n_blocks"):
            enc.ModelConfig.from_dict({**tiny_config().to_dict(), "n_blocks": 2})


class TestInit:
    def test_deterministic(self):
        a, b = enc.init(tiny_config()), enc.init(tiny_config())
        assert a.names() == b.names()
        for name, tensor in a.items():
            assert np.array_equal(tensor, b[name])

    def test_seed_changes_weights(self):
        a = enc.init(tiny_config(seed=1))
        b = enc.init(tiny_config(seed=2))
        assert any(not np.array_equal(t, b[name]) for name, t in a.items())

    def test_norm_init(self):
        params = enc.init(tiny_config())
        assert np.all(params["emb_norm.gain"] == 1.0)
        assert np.all(params["emb_norm.bias"] == 0.0)
        assert np.all(params["head.b"] == 0.0)

    def test_validate_catches_bad_shape(self):
        params = enc.init(tiny_config())
        params["head.w"] = np.zeros((3, 3))
        with pytest.raises(ContractError):
            enc.validate_params(params, tiny_config())


class TestForward:
    def test_masked_slot_matches_baseline(self):
        config = tiny_config(n_layers=2)
        params = enc.init(config)
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            tokens = [f"w{rng.integers(12)}" for _ in range(n)]
            fill = float(rng.random())
            ss = example(tokens, fill, 0, mode=ag.AugmentMode.SS)
            baseline = example(tokens, fill, 0, mode=ag.AugmentMode.BASELINE)
            l1, _ = enc.forward(enc.assemble([ss], config), params, config)
            l2, _ = enc.forward(enc.assemble([baseline], config), params, config)
            assert np.max(np.abs(l1 - l2)) <= 1e-9

    def test_pad_token_id_is_invisible(self):
        config = tiny_config()
        params = enc.init(config)
        ex = example(["w1", "w2"], 0.5, 1)
        ids = list(ex.base.ids)
        assert ids[5] == tp.PAD and ex.base.mask[5] == 0
        ids[5] = VOCAB.id("w7")
        altered = dataclasses.replace(
            ex, base=tp.EncodedExample(tuple(ids), ex.base.mask)
        )
        l1, _ = enc.forward(enc.assemble([ex], config), params, config)
        l2, _ = enc.forward(enc.assemble([altered], config), params, config)
        assert np.array_equal(l1, l2)

    def test_zero_layer_logits_match_hand_computation(self):
        config = tiny_config(d_model=2, n_heads=1, n_layers=0, d_ff=4, seed=5)
        params = enc.init(config)
        ex = example(["w3", "w5"], 0.37, 1, max_len=6)
        logits, _ = enc.forward(enc.assemble([ex], config), params, config)

        # Independent scalar reimplementation of the zero-layer path.
        def rms(vec, gain, bias):
            ms = sum(v * v for v in vec) / len(vec)
            r = 1.0 / math.sqrt(ms + 1e-9)
            return [g * (v * r) + b for v, g, b in zip(vec, gain, bias)]

        cls_vec = [
            params["tok_emb"][tp.CLS][j] + params["pos_emb"][0][j] for j in range(2)
        ]
        h = rms(cls_vec, params["emb_norm.gain"], params["emb_norm.bias"])
        hf = rms(h, params["final_norm.gain"], params["final_norm.bias"])
        expected = [
            sum(hf[j] * params["head.w"][j][c] for j in range(2)) + params["head.b"][c]
            for c in range(2)
        ]
        assert logits[0] == pytest.approx(expected, abs=1e-12)

    def test_attention_rows_normalise_over_unmasked_keys(self):
        config = tiny_config(n_layers=2)
        params = enc.init(config)
        rng = np.random.default_rng(3)
        batch = random_batch(rng, config, 6, slot_mask=1)
        batch.extend(random_batch(rng, config, 6, slot_mask=0))
        _, cache = enc.forward(enc.assemble(batch, config), params, config, train_mode=True)
        kmask = cache["kmask"]
        for layer in cache["layers"]:
            probs = layer["probs"]
            assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) <= 1e-9
            masked_cols = kmask[:, None, None, :] == 0
            assert np.all(probs[np.broadcast_to(masked_cols, probs.shape)] == 0.0)

    def test_deterministic_logits(self):
        config = tiny_config(n_layers=2)
        params = enc.init(config)
        batch = random_batch(np.random.default_rng(9), config, 5, slot_mask=1)
        l1, _ = enc.forward(enc.assemble(batch, config), params, config)
        l2, _ = enc.forward(enc.assemble(batch, config), params, config)
        assert l1.tobytes() == l2.tobytes()

    def test_length_mismatch_rejected(self):
        config = tiny_config()
        params = enc.init(config)
        bad = example(["w1"], 0.5, 1, max_len=8)
        with pytest.raises(ContractError):
            enc.forward(enc.assemble([bad], config), params, config)

    def test_empty_batch_rejected(self):
        config = tiny_config()
        with pytest.raises(ContractError):
            enc.assemble([], config)

    def test_dropout_only_in_train_mode(self):
        config = tiny_config(dropout_rate=0.5)
        params = enc.init(config)
        batch = random_batch(np.random.default_rng(2), config, 3)
        l1, _ = enc.forward(enc.assemble(batch, config), params, config, train_mode=False)
        l2, _ = enc.forward(enc.assemble(batch, config), params, config, train_mode=False)
        assert np.array_equal(l1, l2)
        rng = np.random.default_rng(0)
        l3, _ = enc.forward(enc.assemble(batch, config), params, config, train_mode=True,
                            dropout_rng=rng)
        assert not np.array_equal(l1, l3)


class TestBackward:
    def test_requires_cache(self):
        config = tiny_config()
        with pytest.raises(ContractError):
            enc.backward(None, enc.init(config), config, np.zeros((1, 2)))

    def test_zero_upstream_gives_zero_grads(self):
        config = tiny_config()
        params = enc.init(config)
        batch = random_batch(np.random.default_rng(4), config, 3, slot_mask=1)
        _, cache = enc.forward(enc.assemble(batch, config), params, config, train_mode=True)
        grads, slot_grad = enc.backward(cache, params, config, np.zeros((3, 2)))
        assert all(np.all(g == 0.0) for g in grads.values())
        assert np.all(slot_grad == 0.0)

    def test_masked_slot_gets_zero_gradient(self):
        config = tiny_config(n_layers=2)
        params = enc.init(config)
        masked = random_batch(np.random.default_rng(5), config, 4, slot_mask=0)
        open_ = random_batch(np.random.default_rng(6), config, 4, slot_mask=1)
        _, cache = enc.forward(enc.assemble(masked + open_, config), params, config,
                               train_mode=True)
        upstream = np.random.default_rng(7).normal(size=(8, 2))
        _, slot_grad = enc.backward(cache, params, config, upstream)
        assert np.all(slot_grad[:4] == 0.0)
        assert np.all(slot_grad[4:] != 0.0)

    def test_spot_finite_differences(self):
        # Full-tensor central differences live in the acceptance suite; this
        # samples a handful of coordinates per tensor as a fast regression.
        config = tiny_config()
        params = enc.init(config)
        batch = random_batch(np.random.default_rng(8), config, 2, slot_mask=1)
        upstream = np.array([[0.3, -0.7], [-0.2, 0.5]])

        def objective():
            logits, _ = enc.forward(enc.assemble(batch, config), params, config)
            return float((logits * upstream).sum())

        _, cache = enc.forward(enc.assemble(batch, config), params, config, train_mode=True)
        grads, _ = enc.backward(cache, params, config, upstream)
        rng = np.random.default_rng(0)
        h = 1e-5
        for name, tensor in params.items():
            flat = tensor.reshape(-1)
            for _ in range(min(3, flat.size)):
                i = int(rng.integers(flat.size))
                orig = flat[i]
                flat[i] = orig + h
                up = objective()
                flat[i] = orig - h
                down = objective()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                g = grads[name].reshape(-1)[i]
                assert abs(g - fd) / max(abs(g), abs(fd), 1e-4) < 1e-4, name


class TestGradientOracle:
    """Full-parameter central differences, as acceptance check A3 runs them
    at one layer, for the depths where the CLS-only last block differs: no
    block at all, and a full block feeding a CLS-only one."""

    @pytest.mark.parametrize("n_layers", [0, 2])
    def test_matches_central_differences(self, n_layers):
        config = tiny_config(n_layers=n_layers, seed=3)
        batch = [example(["w1", "w2", "w3"], 0.73, 1), example(["w4", "w5"], 0.21, 0)]
        labels = np.array([1, 0])
        weights = tr.ClassWeights(1.0, 1.0)
        params = enc.init(config)

        def loss_of(current_batch=batch):
            logits, _ = enc.forward(enc.assemble(current_batch, config), params, config)
            value, _ = tr._batch_loss_grad(logits, labels, weights)
            return value

        logits, cache = enc.forward(enc.assemble(batch, config), params, config,
                                    train_mode=True)
        _, dlogits = tr._batch_loss_grad(logits, labels, weights)
        grads, slot_grad = enc.backward(cache, params, config, dlogits)

        h = 1e-5
        worst, worst_at = 0.0, ""
        for name, tensor in params.items():
            grad = grads[name].reshape(-1)
            flat = tensor.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_of()
                flat[i] = orig - h
                down = loss_of()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-4)
                if rel > worst:
                    worst, worst_at = rel, f"{name}[{i}]"
        for row, ex in enumerate(batch):
            plus, minus = [*batch], [*batch]
            plus[row] = dataclasses.replace(ex, slot_fill=ex.slot_fill + h)
            minus[row] = dataclasses.replace(ex, slot_fill=ex.slot_fill - h)
            fd = (loss_of(plus) - loss_of(minus)) / (2 * h)
            rel = abs(slot_grad[row] - fd) / max(abs(slot_grad[row]), abs(fd), 1e-4)
            if rel > worst:
                worst, worst_at = rel, f"slot_fill[{row}]"
        assert slot_grad[1] == 0.0
        assert worst < 1e-4, f"worst relative error {worst:.2e} at {worst_at}"


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_config(n_layers=2)
        params = enc.init(config)
        path = tmp_path / "ckpt.bin"
        enc.save_params(params, path)
        loaded = enc.load_params(path)
        assert loaded.names() == params.names()
        for name, tensor in params.items():
            assert np.array_equal(tensor, loaded[name])
        enc.validate_params(loaded, config)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ContractError):
            enc.load_params(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResourceError):
            enc.load_params(tmp_path / "nope.bin")

    def test_truncated_payload(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "ckpt.bin"
        enc.save_params(enc.init(config), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ContractError):
            enc.load_params(path)
