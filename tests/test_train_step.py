"""One training step: the flat Adam update, the bincount embedding gradient,
the RMS norms and the vectorised occlusion regularizer against their oracles.

The flat Adam update, the bincount and the regularizer's vectorised
bookkeeping only regroup elementwise operations, so they must equal their
oracles bit for bit. The RMS norms compute the same values
through different reductions and must match the frozen copies in
``reference_encoder`` to 1e-12. The occluded variants share their comment's
rows, so their gradients are summed onto those rows in another order than
the combined pass, which ran every occluded copy as a row of its own,
summed them: the penalty must equal that pass bit for bit and every
gradient must match it to 1e-12. The step's helpers, the RMS norm's and
GELU's backward, the dropout mask and the variant sums, must match their
copies from before they were built in place (``oracles``), as
``TestStepHelpersMatchFrozenCopies`` states per helper.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    lexicon = sj.SubjectivityLexicon([sj.LexiconEntry("awful", 0.9)])
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
        assert set(np.diff(prepared.offsets).tolist()) >= set(range(1, 8))
        schedule = tr.TrainSchedule(batch_size=8, lr0=3e-3, val_every=val_every,
                                    epoch_cap=4)
        got, history = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.SS,
                                soc_weight=0.3, seed=4)
        want, want_history = oracles.train_per_tensor(
            prepared, prepared, config, schedule, ag.AugmentMode.SS, soc_weight=0.3, seed=4)
        assert len(history.entries) == 12
        assert history.entries == want_history.entries
        assert history.stop_reason == want_history.stop_reason
        assert tuple(got) == tuple(want)
        for name in tuple(want):
            assert same_bits(got[name], want[name]), name

    def test_flat_params_are_named_views(self):
        config = enc.ModelConfig(max_len=6, vocab_size=9, d_model=4, n_heads=2, n_layers=2,
                                 d_ff=8)
        params = enc.init(config)
        flat, views = enc.flat_params(params)
        assert tuple(views) == tuple(params)
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


def helper_arrays(shape, n_arrays, seed, zero_rows):
    """``n_arrays`` float arrays of ``shape`` whose rows (along the first
    axis) have magnitudes from 0.01 to 10; the rows in ``zero_rows`` hold
    only zeros of either sign."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_arrays):
        scale = rng.uniform(0.01, 10.0, size=shape[:1] + (1,) * (len(shape) - 1))
        x = rng.normal(size=shape) * scale
        rows = [r for r in zero_rows if r < shape[0]]
        x[rows] = np.where(rng.random(x[rows].shape) < 0.5, -0.0, 0.0)
        out.append(x)
    return out


# A helper's input: (rows, width, d_model) and one of its three layouts, a
# full-width block (rows, width + 1, d), CLS alone (rows, 1, d) or the final
# norm's (rows, d); d a power of two or odd.
HELPER_SHAPES = st.builds(
    lambda rows, width, d, kind: {"full": (rows, width + 1, d), "cls": (rows, 1, d),
                                  "flat": (rows, d)}[kind],
    st.integers(1, 6), st.integers(1, 9), st.sampled_from([1, 2, 3, 5, 8, 16, 17, 32]),
    st.sampled_from(["full", "cls", "flat"]))


class TestStepHelpersMatchFrozenCopies:
    """The training step's helpers against their copies in ``oracles`` from
    before the backward pass read GELU's tanh from the forward cache.

    Where the arithmetic is unchanged, the property requires the same bits:
    the RMS norm's input gradient (the same operations, built in place),
    GELU's output and derivative (the forward pass's operations on its tanh,
    and the derivative's own in its order), the dropout mask (1.0 or 0.0
    times the rounded reciprocal of the keep rate is the quotient) and the
    generator state it leaves, and the variant sums (in variant order from
    0.0, as bincount adds). The RMS norm's gain and bias gradients go
    through ``einsum``, which adds the rows in order as the row sums did
    when ``d_model`` is above 1, but in another order at 1, and may fuse
    each multiply-add where numpy's build does, so they must agree within
    1e-12."""

    @settings(max_examples=80, deadline=None)
    @given(shape=HELPER_SHAPES, seed=st.integers(0, 2**32 - 1),
           zero_rows=st.sets(st.integers(0, 5), max_size=3))
    def test_rms_backward(self, shape, seed, zero_rows):
        x, dy = helper_arrays(shape, 2, seed, zero_rows)
        rng = np.random.default_rng(seed)
        gain, bias = rng.normal(1.0, 0.3, size=shape[-1]), rng.normal(0.0, 0.3, size=shape[-1])
        _, cache = enc._rms_forward(x, gain, bias)
        dx, dgain, dbias = enc._rms_backward(dy, gain, cache)
        want_dx, want_dgain, want_dbias = oracles.rms_backward(dy, gain, cache)
        assert same_bits(dx, want_dx)
        for got, want in ((dgain, want_dgain), (dbias, want_dbias)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(shape=HELPER_SHAPES, seed=st.integers(0, 2**32 - 1),
           zero_rows=st.sets(st.integers(0, 5), max_size=3))
    def test_gelu_back(self, shape, seed, zero_rows):
        (u,) = helper_arrays(shape, 1, seed, zero_rows)
        out, tanh, work = np.empty_like(u), np.empty_like(u), np.empty_like(u)
        enc._gelu(u, out, tanh, work)
        g, grad = enc._gelu_back(u, tanh)
        assert same_bits(g, out)
        assert same_bits(grad, oracles.gelu_grad(u))
        # Inference writes the tanh into its work block: the same output.
        inference = u.copy()
        enc._gelu(inference, inference, work, work)
        assert same_bits(inference, out)

    @settings(max_examples=80, deadline=None)
    @given(shape=HELPER_SHAPES, seed=st.integers(0, 2**32 - 1),
           rate=st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    def test_dropout_mask(self, shape, seed, rate):
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert same_bits(enc._dropout_mask(rng, shape, rate),
                         oracles.dropout_mask(want_rng, shape, rate))
        assert same_bits(rng.random(4), want_rng.random(4))

    @settings(max_examples=80, deadline=None)
    @given(shape=HELPER_SHAPES, seed=st.integers(0, 2**32 - 1),
           counts=st.lists(st.integers(1, 8), min_size=1, max_size=6),
           zero_rows=st.sets(st.integers(0, 5), max_size=3))
    def test_variant_sums(self, shape, seed, counts, zero_rows):
        """1 to 8 variants per row; the variants of the rows in
        ``zero_rows`` hold only zeros of either sign."""
        src = np.repeat(np.arange(len(counts)), counts)
        (x,) = helper_arrays((len(src),) + shape[1:], 1, seed, [])
        x[np.isin(src, list(zero_rows))] *= 0.0
        got = enc._variant_sums(np.array(counts))(x)
        assert same_bits(got, oracles.variant_sums(src, x, len(counts)))


@pytest.mark.parametrize("variants", [[3, 0, 1], [1, 1, 1, 1], [2, 1, 2]],
                         ids=["zero", "wrong-length", "wrong-sum"])
@pytest.mark.parametrize("train_mode", [False, True])
def test_forward_refuses_variant_counts(variants, train_mode):
    """Three rows run as four variants: 2, 1 and 1 fit; a count of 0, a
    count per variant rather than per row, or counts summing to five do
    not."""
    prepared, config = soc_setup(n=8)
    plain = prepared.data.take(np.arange(3))
    kmask = plain.kmask[[0, 0, 1, 2]]
    params = enc.init(config)
    fits = enc.Batch(plain.ids, plain.fill, kmask, plain.extent, np.array([2, 1, 1]))
    assert len(enc.forward(fits, params, config, train_mode=train_mode)[0]) == 4
    with pytest.raises(enc.ContractError, match="^a batch's variants must count 1 or more"):
        enc.forward(enc.Batch(plain.ids, plain.fill, kmask, plain.extent, np.array(variants)),
                    params, config, train_mode=train_mode)


def perturbed_params(config, seed=1):
    rng = np.random.default_rng(seed)
    params = enc.init(config)
    for name, tensor in params.items():
        params[name] = tensor + rng.normal(scale=0.1, size=tensor.shape)
    return params


def test_soc_matches_per_target_loop():
    prepared, config = soc_setup(dropout_rate=0.0)
    params = perturbed_params(config)
    batch = oracles.rows(prepared)[:16]
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
    examples = oracles.rows(prepared)
    batch = [examples[r] for r in rows]
    assert {len(ex.identity_positions) for ex in batch} >= {0, *range(1, 8)}
    occlusions = (prepared.offsets, prepared.positions)
    penalty, grads = tr._soc_loss_and_grads(prepared.data, rows, occlusions, params, config,
                                            0.4)
    want_penalty, want_grads = oracles.soc_loss_and_grads_combined(batch, params, config, 0.4)
    assert penalty == want_penalty
    assert set(grads) == set(want_grads)
    for name in want_grads:
        assert grads[name].shape == want_grads[name].shape
        assert np.max(np.abs(grads[name] - want_grads[name])) <= 1e-12, name


def test_soc_variants_mask_one_identity_key_each():
    prepared, config = soc_setup(n=16)
    examples = oracles.rows(prepared)
    rows = np.arange(3, 12)
    data, occlusions = prepared.data, (prepared.offsets, prepared.positions)
    batch, orig_rows, occ_rows = tr._soc_variants(data, rows, occlusions)
    targets = [examples[r] for r in rows if examples[r].identity_positions]
    src = np.repeat(np.arange(len(batch.variants)), batch.variants)  # each variant's row
    assert np.bincount(src[occ_rows]).tolist() == [
        len(ex.identity_positions) for ex in targets]
    assert src[orig_rows].tolist() == list(range(len(targets)))
    assert sorted([*orig_rows, *occ_rows]) == list(range(len(src)))
    want = []
    for ex in targets:
        want.append(ex.aug)
        want.extend(oracles._occlude(ex.aug, p) for p in ex.identity_positions)
    expected = oracles.assemble(want, config)
    assert same_bits(batch.kmask, expected.kmask)
    assert same_bits(batch.ids[src], expected.ids)
    assert same_bits(batch.fill[src], expected.fill)
    # Read as a list, the batch counts the keys of the full copies it replaces.
    assert len(batch) == len(want)
    assert [(v.base.n_real, v.slot_mask) for v in batch] == [
        (ex.base.n_real, ex.slot_mask) for ex in want]
    plain = np.array([r for r in rows if not examples[r].identity_positions], dtype=np.intp)
    assert tr._soc_variants(data, plain, occlusions) is None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_soc_variants_mask_each_listed_column(data):
    """Any CSR list of key columns per row, each an attended token column of
    its row or -1, the slot: a row of the subset that lists none is dropped,
    and a kept row runs ``1 +`` its columns' count of variants, its own key
    mask first, then one per column, in CSR order, with exactly that key
    cleared."""
    n = data.draw(st.integers(1, 8), label="rows")
    extent = np.array(data.draw(st.lists(st.integers(1, 10), min_size=n, max_size=n),
                                label="extents"), dtype=np.int32)
    gate = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="gates")
    real = np.arange(int(extent.max())) < extent[:, None]
    ids = np.where(real, np.arange(real.shape[1]) + 4, 0).astype(np.int32)
    plain = enc.Batch(ids, np.linspace(0.0, 1.0, n), np.column_stack((real, gate)), extent)
    columns = [data.draw(st.lists(st.sampled_from([-1, *range(e)]), max_size=4),
                         label=f"columns of row {i}") for i, e in enumerate(extent.tolist())]
    order = data.draw(st.permutations(range(n)), label="order")
    rows = np.array(order[: data.draw(st.integers(0, n), label="subset")], dtype=np.intp)
    offsets = np.cumsum([0, *map(len, columns)])
    positions = np.array([c for listed in columns for c in listed], dtype=np.intp)

    got = tr._soc_variants(plain, rows, (offsets, positions))
    kept = [r for r in rows.tolist() if columns[r]]
    if not kept:
        assert got is None
        return
    batch, orig_rows, occ_rows = got
    assert batch.variants.tolist() == [1 + len(columns[r]) for r in kept]
    rows_alone = plain.take(np.array(kept))
    for name in ("ids", "fill", "extent"):
        assert same_bits(getattr(batch, name), getattr(rows_alone, name)), name
    want, first = [], []
    for mask, r in zip(rows_alone.kmask, kept):
        first.append(len(want))
        want.append(mask)
        for column in columns[r]:
            want.append(mask.copy())
            want[-1][column] = False
    assert same_bits(batch.kmask, np.array(want))
    assert orig_rows.tolist() == first
    assert occ_rows.tolist() == sorted(set(range(len(want))) - set(first))


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
