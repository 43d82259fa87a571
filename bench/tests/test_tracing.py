"""Outside-in wrappers: every binding is wrapped, counted and restored."""

from subsense import audit, datasets, encoder, identity, subjectivity, textprep, trainer
from subsense.augment import AugmentMode

import tracing


def _tiny_run():
    corpus = datasets.synth_generate(100, 0.5, 0.0, seed=4)
    train_c, val_c, _ = datasets.split(corpus.comments, seed=1)
    vocab = textprep.build_vocab(train_c)
    ids = identity.default_terms()
    config = encoder.ModelConfig(max_len=8, vocab_size=len(vocab), d_model=8, n_heads=2,
                                 n_layers=1, d_ff=8)
    schedule = trainer.TrainSchedule(batch_size=16, val_every=2, epoch_cap=1)
    train_set = trainer.prepare_examples(train_c, vocab, corpus.lexicon, ids, 8, AugmentMode.SS)
    val_set = trainer.prepare_examples(val_c, vocab, corpus.lexicon, ids, 8, AugmentMode.SS)
    trainer.train(train_set, val_set, config, schedule, AugmentMode.SS, soc_weight=0.1)
    return len(train_c), len(val_c)


def test_wrappers_count_a_tiny_train_and_restore_originals():
    originals = {
        (mod, name): getattr(mod, name)
        for mod, name in (
            (trainer, "forward"), (trainer, "backward"), (trainer, "score"),
            (trainer, "detect"), (trainer, "encode"), (trainer, "word_split"),
            (trainer, "augment"), (audit, "detect"), (audit, "score"),
            (subjectivity, "word_split"), (encoder, "forward"), (identity, "detect"),
        )
    }
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert trainer.forward is not originals[(trainer, "forward")]
        assert audit.detect is not originals[(audit, "detect")]
        n_train, n_val = _tiny_run()
    finally:
        tracer.restore()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn, f"{mod.__name__}.{name} not restored"
    assert not tracer.missing

    calls = tracing.call_counts(tracer)
    steps = -(-n_train // 16)
    assert calls["trainer.train"] == 1
    assert calls["trainer._soc_loss_and_grads"] == steps
    assert calls["encoder.backward"] == 2 * steps  # main pass plus the SOC pass
    assert calls["trainer.validation_f1"] == steps // 2
    assert calls["encoder.forward"] == 2 * steps + steps // 2
    assert calls["subjectivity.score"] == n_train + n_val
    assert calls["identity.detect"] == n_train + n_val
    assert calls["augment.augment"] == n_train + n_val

    m = tracing.layer_metrics(tracer, n_comments=n_train + n_val)
    assert m["trainer.steps"] == steps
    assert m["encoder.backward_calls"] == 2 * steps
    assert m["trainer.soc_forward_rows"] > 0
    assert m["trainer.forward_rows_per_step"] > 16
    assert 0.0 < m["encoder.padded_share"] < 1.0
    assert m["trainer.train_s"] >= m["encoder.forward_s"] * 0.5
    assert 0.0 <= m["trainer.self_s"] <= m["trainer.train_s"]
    assert m["subjectivity.score_calls_per_comment"] == 1.0


def test_spans_nest_under_their_callers(tmp_path):
    tracer = tracing.Tracer("nest")
    tracer.install()
    try:
        with tracer.span("cli.train"):
            _tiny_run()
    finally:
        tracer.restore()
    names = [tracer.names[i] for i in tracer.name_of]
    root = names.index("cli.train")
    assert tracer.parent[root] == -1
    for sid, name in enumerate(names):
        if name == "encoder.backward":
            assert names[tracer.parent[sid]] in ("trainer.train", "trainer._soc_loss_and_grads")
        assert tracer.end[sid] >= tracer.start[sid]
    tracer.write(tmp_path / "spans.csv.gz")
    assert (tmp_path / "spans.csv.gz").stat().st_size > 0
