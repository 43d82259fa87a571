import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsense import augment as ag
from subsense import encoder as enc
from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense import trainer as tr
from subsense.datasets import Comment, Label
from subsense.errors import ConfigError, ContractError, DegenerateLabelsError

import oracles


def comments(n_toxic, n_nontoxic, toxic_word="awful", nontoxic_word="garden"):
    out = []
    for i in range(n_toxic):
        out.append(Comment(f"t{i}", f"the {toxic_word} thing happened {i % 3}", Label.TOXIC))
    for i in range(n_nontoxic):
        out.append(Comment(f"n{i}", f"the {nontoxic_word} thing happened {i % 3}", Label.NONTOXIC))
    return out


def make_setup(data, mode=ag.AugmentMode.BASELINE, max_len=10, **config_overrides):
    vocab = tp.build_vocab(data, max_size=50)
    lexicon = sj.SubjectivityLexicon([sj.LexiconEntry("awful", 0.9, -0.8)])
    terms = idn.default_terms()
    prepared = tr.prepare_examples(data, vocab, lexicon, terms, max_len, mode)
    cfg = dict(max_len=max_len, vocab_size=len(vocab), d_model=8, n_heads=2,
               n_layers=1, d_ff=16, dropout_rate=0.0, seed=1)
    cfg.update(config_overrides)
    return prepared, enc.ModelConfig(**cfg)


class TestClassWeights:
    def test_balanced(self):
        weights = tr.class_weights([Label.TOXIC] * 50 + [Label.NONTOXIC] * 50)
        assert weights.w_toxic == 1.0 and weights.w_nontoxic == 1.0

    def test_imbalanced(self):
        weights = tr.class_weights([Label.TOXIC] * 10 + [Label.NONTOXIC] * 90)
        assert weights.w_toxic == pytest.approx(5.0)
        assert weights.w_nontoxic == pytest.approx(0.5556, abs=1e-4)

    def test_degenerate(self):
        with pytest.raises(DegenerateLabelsError):
            tr.class_weights([Label.NONTOXIC] * 10)


class TestWeightedLoss:
    def test_confident_correct(self):
        weights = tr.ClassWeights(1.0, 1.0)
        loss = oracles.weighted_loss(np.array([10.0, -10.0]), Label.NONTOXIC, weights)
        assert loss < 1e-4

    def test_uniform_logits(self):
        weights = tr.ClassWeights(1.0, 1.0)
        loss = oracles.weighted_loss(np.array([0.0, 0.0]), Label.TOXIC, weights)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_weight_scales_linearly(self):
        logits = np.array([0.4, -1.1])
        single = oracles.weighted_loss(logits, Label.TOXIC, tr.ClassWeights(1.0, 1.0))
        doubled = oracles.weighted_loss(logits, Label.TOXIC, tr.ClassWeights(2.0, 1.0))
        assert doubled == pytest.approx(2.0 * single)

    def test_shape_contract(self):
        with pytest.raises(ContractError):
            oracles.weighted_loss(np.array([1.0, 2.0, 3.0]), Label.TOXIC, tr.ClassWeights(1, 1))

    def test_balanced_reduces_to_plain_cross_entropy(self):
        weights = tr.class_weights([Label.TOXIC, Label.NONTOXIC])
        logits = np.array([0.3, 0.9])
        plain = -math.log(math.exp(0.9) / (math.exp(0.3) + math.exp(0.9)))
        assert oracles.weighted_loss(logits, Label.TOXIC, weights) == pytest.approx(plain)


class TestHalvingController:
    SCRIPT = [0.5, 0.6, 0.55, 0.7, 0.65, 0.6, 0.8, 0.75, 0.7, 0.65]

    def test_scripted_sequence(self):
        ctrl = tr.HalvingController(lr=1.0, max_halvings=5)
        halved_at = []
        stopped_at = None
        for i, f1 in enumerate(self.SCRIPT, start=1):
            outcome = ctrl.observe(f1)
            if outcome == "halved":
                halved_at.append(i)
            if ctrl.exhausted:
                stopped_at = i
                break
        assert halved_at == [3, 5, 6, 8, 9]
        assert stopped_at == 9
        assert ctrl.lr == pytest.approx(1.0 * 0.5**5)
        assert ctrl.best_f1 == 0.8

    def test_constant_f1_never_halves(self):
        ctrl = tr.HalvingController(lr=1.0, max_halvings=5)
        assert ctrl.observe(0.5) == "improved"
        for _ in range(20):
            assert ctrl.observe(0.5) == "stalled"
        assert ctrl.halvings == 0 and ctrl.lr == 1.0


class TestOcclusionPenalty:
    def test_no_identity_tokens(self):
        data = comments(3, 3)
        prepared, config = make_setup(data)
        params = enc.init(config)
        assert oracles.occlusion_penalty(prepared[0], params, config) == 0.0

    def test_constant_model(self):
        data = [Comment("a", "the muslim community met", Label.NONTOXIC)] + comments(3, 3)
        prepared, config = make_setup(data)
        params = enc.init(config)
        params["head.w"] = np.zeros_like(params["head.w"])
        assert prepared[0].identity_positions
        assert oracles.occlusion_penalty(prepared[0], params, config) == 0.0

    def test_matches_two_forward_oracle(self):
        data = [Comment("a", "the muslim women spoke", Label.TOXIC)] + comments(3, 3)
        prepared, config = make_setup(data)
        params = enc.init(config)
        target = prepared[0]
        assert len(target.identity_positions) == 2

        base_logits, _ = enc.forward(enc.assemble([target.aug], config), params, config)
        total = 0.0
        for pos in target.identity_positions:
            mask = list(target.aug.base.mask)
            mask[pos] = 0
            occluded = dataclasses.replace(
                target.aug, base=tp.EncodedExample(target.aug.base.ids, tuple(mask))
            )
            occ_logits, _ = enc.forward(enc.assemble([occluded], config), params, config)
            total += (base_logits[0, Label.TOXIC] - occ_logits[0, Label.TOXIC]) ** 2
        expected = total / len(target.identity_positions)
        assert oracles.occlusion_penalty(target, params, config) == pytest.approx(
            expected, rel=1e-12
        )

    def test_soc_gradients_match_finite_differences(self):
        data = [
            Comment("a", "the muslim women spoke", Label.TOXIC),
            Comment("b", "the gay couple arrived", Label.NONTOXIC),
        ] + comments(2, 2)
        prepared, config = make_setup(data, mode=ag.AugmentMode.SS)
        params = enc.init(config)
        batch = prepared[:2]
        soc_weight = 0.7

        penalty, grads = tr._soc_loss_and_grads(*oracles.soc_args(batch, config), params, config,
                                                soc_weight)
        oracle = sum(oracles.occlusion_penalty(ex, params, config) for ex in batch) / len(batch)
        assert penalty == pytest.approx(oracle, rel=1e-12)

        def objective():
            return soc_weight * sum(
                oracles.occlusion_penalty(ex, params, config) for ex in batch
            ) / len(batch)

        rng = np.random.default_rng(0)
        h = 1e-5
        for name in ("head.w", "layer0.attn.wv", "tok_emb", "emb_norm.gain"):
            flat = params[name].reshape(-1)
            for _ in range(3):
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


class TestPredict:
    def constant_params(self, config, bias):
        params = enc.init(config)
        for name in params.names():
            params[name] = np.zeros_like(params[name])
        params["head.b"] = np.array(bias, dtype=float)
        return params

    def test_softmax_probability(self):
        data = comments(2, 2)
        prepared, config = make_setup(data)
        params = self.constant_params(config, [-2.0, 2.0])
        label, prob = oracles.predict(params, config, prepared[0].aug)
        assert label is Label.TOXIC
        assert prob == pytest.approx(0.9820, abs=1e-4)

    def test_tie_breaks_nontoxic(self):
        data = comments(2, 2)
        prepared, config = make_setup(data)
        params = self.constant_params(config, [0.0, 0.0])
        label, prob = oracles.predict(params, config, prepared[0].aug)
        assert label is Label.NONTOXIC
        assert prob == pytest.approx(0.5)

    def test_masked_slot_prediction_matches_baseline(self):
        data = comments(3, 3)
        ss_prepared, config = make_setup(data, mode=ag.AugmentMode.SS)
        base_prepared, _ = make_setup(data, mode=ag.AugmentMode.BASELINE)
        params = enc.init(config)
        for ss_ex, base_ex in zip(ss_prepared, base_prepared):
            assert ss_ex.aug.slot_mask == 0  # no identity terms in this data
            assert oracles.predict(params, config, ss_ex.aug) == oracles.predict(
                params, config, base_ex.aug
            )

    @settings(max_examples=200)
    @given(st.lists(
        st.one_of(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
            st.floats(allow_nan=False, allow_infinity=False).map(lambda x: (x, x)),
            st.tuples(st.floats(-1e307, 1e307), st.floats(-1e307, 1e307)),
        ),
        min_size=1, max_size=20,
    ))
    @example([(0.0, 0.0), (-0.0, 0.0), (1e-300, 1e-300), (3.0, 3.0 + 4e-16)])
    def test_batch_decisions_equal_per_row_decide(self, pairs):
        """Labels and probabilities of a whole batch equal the per-row
        decision bit for bit; a tie is non-toxic."""
        logits = np.array(pairs, dtype=np.float64)
        preds, probs = tr._decisions(logits)
        for row, label, prob in zip(logits, preds, probs, strict=True):
            want_label, want_prob = oracles.decide(row)
            assert label is want_label
            assert type(prob) is float and repr(prob) == repr(want_prob)
            if row[0] == row[1]:
                assert label is Label.NONTOXIC

    def shuffled_lengths(self):
        """Comments of 1 to 30 words in random order, some truncated, with the
        slot gate open on those naming an identity term."""
        rng = np.random.default_rng(4)
        words = ["the", "awful", "garden", "muslim", "women", "thing", "happened"]
        data = [
            Comment(f"c{i}", " ".join(rng.choice(words, size=int(rng.integers(1, 31)))),
                    Label.TOXIC if i % 2 else Label.NONTOXIC)
            for i in range(40)
        ]
        prepared, config = make_setup(data, mode=ag.AugmentMode.SS, max_len=24, n_layers=2)
        params = enc.init(config)
        for name, tensor in params.items():
            params[name] = tensor + rng.normal(scale=1.0, size=tensor.shape)
        return params, config, [ex.aug for ex in prepared]

    def test_predict_batch_returns_input_order(self):
        params, config, examples = self.shuffled_lengths()
        extents = [ex.base.extent for ex in examples]
        assert extents != sorted(extents) and min(extents) < config.max_len
        preds, probs = tr.predict_batch(params, config, enc.assemble(examples, config),
                                        batch_size=8)
        assert set(preds) == {Label.TOXIC, Label.NONTOXIC}
        for ex, label, prob in zip(examples, preds, probs, strict=True):
            one_label, one_prob = oracles.predict(params, config, ex)
            assert label is one_label
            assert abs(prob - one_prob) <= 1e-12

    def test_predict_batch_is_repeatable(self):
        params, config, examples = self.shuffled_lengths()
        data = enc.assemble(examples, config)
        first = tr.predict_batch(params, config, data, batch_size=8)
        assert tr.predict_batch(params, config, data, batch_size=8) == first


class TestTrain:
    def test_loss_collapses_on_separable_data(self):
        data = comments(10, 10)
        prepared, config = make_setup(data)
        schedule = tr.TrainSchedule(
            batch_size=10, lr0=1e-3, val_every=1000, max_halvings=5, epoch_cap=100
        )
        params, history = tr.train(
            prepared, prepared, config, schedule, ag.AugmentMode.BASELINE, seed=0
        )
        assert len(history.entries) == 200
        assert history.entries[-1].loss < 0.1 * history.entries[0].loss

    def test_returns_best_validation_params(self):
        data = comments(12, 12)
        prepared, config = make_setup(data)
        schedule = tr.TrainSchedule(
            batch_size=8, lr0=5e-3, val_every=3, max_halvings=3, epoch_cap=10
        )
        params, history = tr.train(
            prepared, prepared, config, schedule, ag.AugmentMode.BASELINE, seed=3
        )
        best = history.best_val_f1()
        assert best is not None
        achieved = tr.validation_f1(
            params, config, enc.assemble([e.aug for e in prepared], config),
            [e.label for e in prepared],
        )
        assert achieved == pytest.approx(best)

    def test_lr_monotone_and_halved_only_at_validations(self):
        data = comments(8, 8, toxic_word="thing", nontoxic_word="thing")  # unlearnable
        prepared, config = make_setup(data)
        schedule = tr.TrainSchedule(
            batch_size=4, lr0=1e-3, val_every=2, max_halvings=4, epoch_cap=40
        )
        _, history = tr.train(
            prepared, prepared, config, schedule, ag.AugmentMode.BASELINE, seed=5
        )
        prev = history.entries[0]
        assert history.entries[0].lr <= schedule.lr0
        for entry in history.entries[1:]:
            assert entry.lr <= prev.lr
            assert entry.halvings >= prev.halvings
            if entry.lr != prev.lr:
                assert entry.val_f1 is not None
                assert entry.lr == pytest.approx(prev.lr * 0.5)
            prev = entry

    def test_stops_after_max_halvings(self):
        data = comments(8, 8, toxic_word="thing", nontoxic_word="thing")
        prepared, config = make_setup(data)
        schedule = tr.TrainSchedule(
            batch_size=4, lr0=1e-3, val_every=2, max_halvings=2, epoch_cap=200
        )
        _, history = tr.train(
            prepared, prepared, config, schedule, ag.AugmentMode.BASELINE, seed=5
        )
        if history.stop_reason == "max_halvings":
            assert history.entries[-1].halvings == 2

    def test_deterministic_runs(self):
        data = comments(8, 8)
        prepared, config = make_setup(data, dropout_rate=0.1)
        schedule = tr.TrainSchedule(batch_size=8, lr0=1e-3, val_every=4, epoch_cap=4)
        p1, h1 = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.BASELINE, seed=9)
        p2, h2 = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.BASELINE, seed=9)
        assert h1.entries == h2.entries
        for name, tensor in p1.items():
            assert np.array_equal(tensor, p2[name])

    def test_soc_zero_weight_is_additive_zero(self):
        # Identity-free data: a positive soc weight must change nothing either.
        data = comments(8, 8)
        prepared, config = make_setup(data, mode=ag.AugmentMode.SS)
        assert all(not ex.identity_positions for ex in prepared)
        schedule = tr.TrainSchedule(batch_size=8, lr0=1e-3, val_every=4, epoch_cap=3)
        _, h0 = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.SS,
                         soc_weight=0.0, seed=2)
        _, h1 = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.SS,
                         soc_weight=0.5, seed=2)
        assert h0.entries == h1.entries

    def test_soc_weight_changes_training_when_identity_present(self):
        data = [
            Comment(f"i{i}", f"the muslim awful group {i % 3}", Label.TOXIC) for i in range(6)
        ] + comments(0, 6)
        prepared, config = make_setup(data, mode=ag.AugmentMode.SS)
        schedule = tr.TrainSchedule(batch_size=6, lr0=1e-3, val_every=50, epoch_cap=2)
        _, h0 = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.SS,
                         soc_weight=0.0, seed=2)
        _, h1 = tr.train(prepared, prepared, config, schedule, ag.AugmentMode.SS,
                         soc_weight=2.0, seed=2)
        assert h0.entries != h1.entries

    def test_slot_only_mode_trains(self):
        data = comments(6, 6)
        prepared, config = make_setup(data, mode=ag.AugmentMode.SO)
        assert all(ex.aug.slot_mask == 1 for ex in prepared)
        schedule = tr.TrainSchedule(batch_size=6, lr0=1e-3, val_every=4, epoch_cap=2)
        params, history = tr.train(prepared, prepared, config, schedule,
                                   ag.AugmentMode.SO, seed=4)
        assert history.entries
        label, prob = oracles.predict(params, config, prepared[0].aug)
        assert 0.0 <= prob <= 1.0

    def test_mode_mismatch_rejected(self):
        data = comments(5, 5)
        prepared, config = make_setup(data, mode=ag.AugmentMode.SS)
        schedule = tr.TrainSchedule(batch_size=4, epoch_cap=1)
        with pytest.raises(ContractError):
            tr.train(prepared, prepared, config, schedule, ag.AugmentMode.BASELINE)

    def test_degenerate_labels_rejected(self):
        data = comments(6, 0) + comments(0, 3)[:0]  # toxic only
        prepared, config = make_setup(data)
        schedule = tr.TrainSchedule(batch_size=4, epoch_cap=1)
        with pytest.raises(DegenerateLabelsError):
            tr.train(prepared, prepared, config, schedule, ag.AugmentMode.BASELINE)

    def test_empty_sets_rejected(self):
        data = comments(5, 5)
        prepared, config = make_setup(data)
        schedule = tr.TrainSchedule(batch_size=4, epoch_cap=1)
        with pytest.raises(ContractError):
            tr.train([], prepared, config, schedule, ag.AugmentMode.BASELINE)

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            tr.TrainSchedule(batch_size=0)
        with pytest.raises(ConfigError):
            tr.TrainSchedule(max_halvings=0)

    def test_schedule_types(self):
        for field, value in (("lr0", True), ("batch_size", 8.0), ("epoch_cap", "2"),
                             ("halving_factor", None)):
            with pytest.raises(ConfigError, match=f"TrainSchedule.{field} must be"):
                tr.TrainSchedule(**{field: value})
        assert tr.TrainSchedule(lr0=1).lr0 == 1

    def test_history_csv(self, tmp_path):
        history = tr.TrainHistory(
            [tr.HistoryEntry(1, 0.5, None, 1e-3, 0), tr.HistoryEntry(2, 0.4, 0.7, 1e-3, 0)],
            "epoch_cap",
        )
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,val_f1,lr,halvings"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == ""


class TestIdentityPositions:
    def test_offsets_and_truncation(self):
        terms = idn.default_terms()
        tokens = ["the", "muslim", "women", "spoke"]
        assert tr.identity_token_positions(tokens, terms, 10) == (2, 3)
        # max_len 4 keeps only the first 2 tokens: "women" is truncated away.
        assert tr.identity_token_positions(tokens, terms, 4) == (2,)

    @pytest.mark.parametrize("text, marked", [
        ("the muslim's view", ("muslim's",)),
        ("women-only event", ("women-only",)),
        ("black-and-white photo", ("black-and-white",)),
        ("islam,jews", ("islam,jews",)),
        ("(Jews) and the gay, women", ("jews", "gay", "women")),
        ("muslimness, whitewash and blackish-grey", ()),
    ])
    def test_tokens_holding_a_term_are_marked(self, text, marked):
        terms = idn.default_terms()
        tokens = tp.word_split(text)
        found = idn.detect(text, terms).terms
        for lexicon in (terms, found):
            positions = tr.identity_token_positions(tokens, lexicon, 16)
            assert tuple(tokens[p - 1] for p in positions) == marked

    @settings(max_examples=300)
    @given(st.one_of(
        st.text(max_size=40),
        st.lists(
            st.one_of(
                st.sampled_from(idn.STOCK_TERMS + ("muslim's", "Women-only", "islam,jews",
                                                   "(gay)", "whitewash", "black-and-white")),
                st.text(max_size=5),
            ),
            max_size=8,
        ).flatmap(lambda words: st.sampled_from([" ", "-", ",", "'", ""]).map(
            lambda sep: sep.join(words))),
    ))
    @example("the muslim's view")
    @example("women-only event")
    @example("black-and-white photo")
    @example("islam,jews")
    def test_open_gate_has_an_occlusion_position(self, text):
        """Untruncated text: the SS gate is open exactly when some token is
        marked for the occlusion regularizer."""
        tokens = tp.word_split(text)
        max_len = len(tokens) + 2
        if max_len < 3:
            return
        vocab = tp.Vocab.from_tokens(["muslim"])
        lexicon = sj.SubjectivityLexicon([sj.LexiconEntry("awful", 0.9, -0.8)])
        (ex,) = tr.prepare_examples([Comment("c", text, Label.TOXIC)], vocab, lexicon,
                                    idn.default_terms(), max_len, ag.AugmentMode.SS)
        assert ex.aug.slot_mask == (1 if ex.identity_positions else 0)
