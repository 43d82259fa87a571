"""One training step: the flat Adam update, the bincount embedding gradient,
the RMS norms, the narrowed dropout masks and the vectorised occlusion
regularizer against their oracles.

The flat Adam update, the bincount, the dropout masks and the regularizer's
vectorised bookkeeping only regroup elementwise operations, so they must
equal their oracles bit for bit. The RMS norms compute the same values
through different reductions and must match the frozen copies in
``reference_encoder`` to 1e-12. The occluded variants share their comment's
rows, so their gradients are summed onto those rows in another order than
the combined pass, which ran every occluded copy as a row of its own,
summed them: the penalty must equal that pass bit for bit and every
gradient must match it to 1e-12.
"""

import numpy as np
import pytest

from subsense import augment as ag
from subsense import encoder as enc
from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense import trainer as tr
from subsense.datasets import Comment, Label

import oracles
import reference_encoder as ref

TERMS = ("muslim", "women", "gay", "jews", "black", "white", "islam")


def identity_corpus(n):
    """Comments with 0 to 7 identity tokens each, some only by the
    whole-word rule ("muslim's", "islam,jews")."""
    rng = np.random.default_rng(n)
    fillers = ("the", "awful", "garden", "thing", "view", "muslim's", "islam,jews")
    out = []
    for i in range(n):
        words = [str(rng.choice(fillers)) for _ in range(int(rng.integers(1, 5)))]
        words += list(TERMS[: i % 8])
        rng.shuffle(words)
        label = Label.TOXIC if "awful" in words or i % 3 == 0 else Label.NONTOXIC
        out.append(Comment(f"c{i}", " ".join(words), label))
    return out


def soc_setup(n=24, max_len=16, dropout_rate=0.1, n_layers=1):
    data = identity_corpus(n)
    vocab = tp.build_vocab(data, max_size=60)
    lexicon = sj.SubjectivityLexicon([sj.LexiconEntry("awful", 0.9, -0.8)])
    prepared = tr.prepare_examples(data, vocab, lexicon, idn.default_terms(), max_len,
                                   ag.AugmentMode.SS)
    config = enc.ModelConfig(max_len=max_len, vocab_size=len(vocab), d_model=8, n_heads=2,
                             n_layers=n_layers, d_ff=16, dropout_rate=dropout_rate, seed=3)
    return prepared, config


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFlatAdam:
    @pytest.mark.parametrize("val_every", [3, 1000])
    def test_matches_per_tensor_updates(self, val_every):
        prepared, config = soc_setup()
        assert {len(ex.identity_positions) for ex in prepared} >= set(range(1, 8))
        schedule = tr.TrainSchedule(batch_size=8, lr0=3e-3, val_every=val_every,
                                    epoch_cap=4)
        got, history = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.SS,
                                soc_weight=0.3, seed=4)
        want, want_history = oracles.train_per_tensor(
            prepared, prepared, config, schedule, ag.AugmentMode.SS, soc_weight=0.3, seed=4)
        assert len(history.entries) == 12
        assert history.entries == want_history.entries
        assert history.stop_reason == want_history.stop_reason
        assert got.names() == want.names()
        for name in want.names():
            assert same_bits(got[name], want[name]), name

    def test_flat_params_are_named_views(self):
        config = enc.ModelConfig(max_len=6, vocab_size=9, d_model=4, n_heads=2, n_layers=2,
                                 d_ff=8)
        params = enc.init(config)
        flat, views = enc.flat_params(params)
        assert views.names() == params.names()
        assert flat.size == sum(t.size for _, t in params.items())
        for name, tensor in params.items():
            assert same_bits(views[name], tensor)
            assert np.shares_memory(views[name], flat)
            assert not np.shares_memory(tensor, flat)
        flat += 1.0
        for name, tensor in params.items():
            assert np.array_equal(views[name], tensor + 1.0)


def test_scatter_rows_matches_add_at():
    rng = np.random.default_rng(0)
    for b, width, d, n in ((4, 7, 5, 3), (6, 1, 8, 40), (1, 9, 3, 2), (32, 17, 32, 400)):
        # Few ids, so they repeat within and across rows.
        ids = rng.integers(0, n, size=(b, width))
        ids[0, :] = ids[0, 0]
        rows = rng.normal(size=(b, width + 1, d))[:, :width]  # strided, as in backward
        rows[0, 0, 0] = -0.0
        expected = np.zeros((n, d))
        np.add.at(expected, ids, rows)
        assert same_bits(enc._scatter_rows(ids, rows, n), expected)


@pytest.mark.parametrize("shape", [(5, 9, 8), (5, 1, 8), (5, 8), (3, 17, 32)])
def test_rms_norm_matches_frozen_copy(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[1])
    d = shape[-1]
    x = rng.normal(size=shape) * rng.uniform(0.01, 10.0, size=shape[:-1] + (1,))
    gain = rng.normal(1.0, 0.3, size=d)
    bias = rng.normal(0.0, 0.3, size=d)
    dy = rng.normal(size=shape)
    y, cache = enc._rms_forward(x, gain, bias)
    ref_y, ref_cache = ref._rms_forward(x, gain, bias)
    assert np.max(np.abs(y - ref_y)) <= 1e-12
    got = enc._rms_backward(dy, gain, cache)
    want = ref._rms_backward(dy, gain, ref_cache)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12


def perturbed_params(config, seed=1):
    rng = np.random.default_rng(seed)
    params = enc.init(config)
    for name, tensor in params.items():
        params[name] = tensor + rng.normal(scale=0.1, size=tensor.shape)
    return params


def test_soc_matches_per_target_loop():
    prepared, config = soc_setup(dropout_rate=0.0)
    params = perturbed_params(config)
    batch = prepared[:16]
    # 1 to 7 identity tokens per target: sums of fewer than 8 terms.
    assert {len(ex.identity_positions) for ex in batch} >= set(range(1, 8))
    args = oracles.soc_args(batch, config)
    penalty, grads = tr._soc_loss_and_grads(*args, params, config, 0.4)
    want_penalty, want_grads = oracles.soc_loss_and_grads_per_target(*args, params, config, 0.4)
    assert penalty == want_penalty
    assert set(grads) == set(want_grads)
    for name in want_grads:
        assert same_bits(grads[name], want_grads[name]), name


@pytest.mark.parametrize("n_layers", [0, 1, 2])
def test_soc_variants_match_combined_pass(n_layers):
    """A shuffled training batch out of a larger set, as ``train`` slices
    it, against the pass over full occluded copies of its examples."""
    prepared, config = soc_setup(n=40, dropout_rate=0.0, n_layers=n_layers)
    params = perturbed_params(config, seed=n_layers)
    rows = np.random.default_rng(0).permutation(len(prepared))[:20]
    batch = [prepared[r] for r in rows]
    assert {len(ex.identity_positions) for ex in batch} >= {0, *range(1, 8)}
    data = enc.assemble([ex.aug for ex in prepared], config)
    penalty, grads = tr._soc_loss_and_grads(data, rows, tr._identity_csr(prepared), params,
                                            config, 0.4)
    want_penalty, want_grads = oracles.soc_loss_and_grads_combined(batch, params, config, 0.4)
    assert penalty == want_penalty
    assert set(grads) == set(want_grads)
    for name in want_grads:
        assert grads[name].shape == want_grads[name].shape
        assert np.max(np.abs(grads[name] - want_grads[name])) <= 1e-12, name


def test_soc_variants_mask_one_identity_key_each():
    prepared, config = soc_setup(n=16)
    rows = np.arange(3, 12)
    data = enc.assemble([ex.aug for ex in prepared], config)
    batch, orig_rows, occ_rows = tr._soc_variants(data, rows, tr._identity_csr(prepared))
    targets = [prepared[r] for r in rows if prepared[r].identity_positions]
    assert np.bincount(batch.src[occ_rows]).tolist() == [
        len(ex.identity_positions) for ex in targets]
    assert batch.src[orig_rows].tolist() == list(range(len(targets)))
    assert sorted([*orig_rows, *occ_rows]) == list(range(len(batch.src)))
    want = []
    for ex in targets:
        want.append(ex.aug)
        want.extend(oracles._occlude(ex.aug, p) for p in ex.identity_positions)
    expected = enc.assemble(want, config)
    assert same_bits(batch.kmask, expected.kmask)
    assert same_bits(batch.ids[batch.src], expected.ids)
    assert same_bits(batch.fill[batch.src], expected.fill)
    # Read as a list, the batch counts the keys of the full copies it replaces.
    assert len(batch) == len(want)
    assert [(v.base.n_real, v.slot_mask) for v in batch] == [
        (ex.base.n_real, ex.slot_mask) for ex in want]
    plain = np.array([r for r in rows if not prepared[r].identity_positions], dtype=np.intp)
    assert tr._soc_variants(data, plain, tr._identity_csr(prepared)) is None


@pytest.mark.parametrize("cols", [slice(None), slice(0, 1), np.array([0, 1, 2, 16])])
def test_narrowed_dropout_mask_equals_full_mask(cols):
    """Narrowing before the compare and the scale gives the bits of the
    full mask narrowed afterwards, and leaves the stream where it was."""
    shape, rate = (32, 17, 32), 0.1
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = enc._dropout_mask(got_rng, shape, rate, cols)
    keep = 1.0 - rate
    want = ((want_rng.random(shape) < keep).astype(np.float64) / keep)[:, cols]
    assert same_bits(got, want)
    assert got_rng.random() == want_rng.random()


class TestNonFinite:
    def run_with_bad_step(self, monkeypatch, val_every, spoil):
        """Train, letting ``spoil`` corrupt the gradients of step 3; returns
        the result and the parameters the third step started from."""
        prepared, config = soc_setup(dropout_rate=0.0)
        schedule = tr.TrainSchedule(batch_size=4, val_every=val_every, epoch_cap=2)
        real_backward = tr.backward
        calls, before = [], {}

        def backward(cache, params, config, dlogits):
            grads, slot = real_backward(cache, params, config, dlogits)
            calls.append(1)
            if len(calls) == 3:
                before.update({name: t.copy() for name, t in params.items()})
                spoil(grads)
            return grads, slot

        monkeypatch.setattr(tr, "backward", backward)
        params, history = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.SS,
                                   seed=2)
        return params, history, before

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stops_before_the_update(self, monkeypatch, bad):
        def spoil(grads):
            grads["layer0.ff.w1"][1, 2] = bad

        params, history, before = self.run_with_bad_step(monkeypatch, 1000, spoil)
        assert history.stop_reason == "non_finite"
        assert [e.step for e in history.entries] == [1, 2, 3]
        # No validation ran: the parameters are the ones step 3 started from.
        for name, tensor in params.items():
            assert np.isfinite(tensor).all(), name
            assert same_bits(tensor, before[name]), name

    def test_returns_the_best_snapshot(self, monkeypatch):
        def spoil(grads):
            grads["tok_emb"][:] = np.nan

        params, history, _ = self.run_with_bad_step(monkeypatch, 1, spoil)
        assert history.stop_reason == "non_finite"
        assert history.best_val_f1() is not None
        for name, tensor in params.items():
            assert np.isfinite(tensor).all(), name

    def test_non_finite_loss_stops(self, monkeypatch):
        prepared, config = soc_setup(dropout_rate=0.0)
        schedule = tr.TrainSchedule(batch_size=4, val_every=1000, epoch_cap=2)
        real_loss = tr._batch_loss_grad
        calls = []

        def loss_grad(logits, labels, weights):
            loss, dlogits = real_loss(logits, labels, weights)
            calls.append(1)
            return (float("nan") if len(calls) == 2 else loss), dlogits

        monkeypatch.setattr(tr, "_batch_loss_grad", loss_grad)
        params, history = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.SS)
        assert history.stop_reason == "non_finite"
        assert len(history.entries) == 2
        assert all(np.isfinite(t).all() for _, t in params.items())
