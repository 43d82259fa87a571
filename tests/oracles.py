"""Oracles for the batched and single-pass paths.

``predict`` decides one example with ``decide``, the per-row decision
``trainer.predict_batch`` made before it decided whole batches at once.
``occlusion_penalty`` runs one forward per occluded identity token;
``trainer._soc_loss_and_grads`` is checked against it, bit for bit against
``soc_loss_and_grads_per_target``, its per-target loop over the same variant
batch, and to 1e-12 against ``soc_loss_and_grads_combined``, the pass that
ran every occluded copy as a full row of its own. ``train_per_tensor`` is
the training loop with one Adam update per tensor, which ``trainer.train``'s
single update over the flat parameter vector must equal bit for bit.
``weighted_loss`` is the per-example loss the batched loss is checked
against. The last part holds frozen copies of the feature pass and the audit
from before the audit reused the trainer's per-comment features.
"""

import dataclasses
import math

import numpy as np

from subsense import audit as _audit
from subsense import encoder as _enc
from subsense import trainer as _tr
from subsense.augment import AugmentedExample, augment
from subsense.datasets import Label
from subsense.errors import ContractError
from subsense.identity import detect
from subsense.subjectivity import Assessment, SubjectivityScore
from subsense.textprep import EncodedExample, encode
from subsense.trainer import PreparedExample


def forward(examples, params, config, **kwargs):
    """``encoder.forward`` over a list of augmented examples."""
    return _enc.forward(_enc.assemble(examples, config), params, config, **kwargs)


def decide(logit_pair):
    """(label, toxic probability) of one logit pair; ties resolve to non-toxic."""
    shifted = logit_pair - logit_pair.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    label = Label.TOXIC if logit_pair[Label.TOXIC] > logit_pair[Label.NONTOXIC] else Label.NONTOXIC
    return label, float(probs[Label.TOXIC])


def predict(params, config, example: AugmentedExample):
    """(label, toxic probability); ties resolve to non-toxic."""
    logits, _ = forward([example], params, config)
    return decide(logits[0])


def weighted_loss(logits, label, weights) -> float:
    """Class-weighted cross-entropy of softmax(logits) against the label."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (2,):
        raise ContractError("weighted_loss expects a length-2 logit vector")
    shifted = logits - logits.max()
    logp = shifted - math.log(np.exp(shifted).sum())
    weight = weights.w_toxic if int(label) == Label.TOXIC else weights.w_nontoxic
    return -weight * float(logp[int(label)])


def _occlude(ex: AugmentedExample, position: int) -> AugmentedExample:
    """A full copy of ``ex`` with the key at ``position`` masked off."""
    mask = list(ex.base.mask)
    mask[position] = 0
    return dataclasses.replace(ex, base=EncodedExample(ex.base.ids, tuple(mask)))


def soc_args(batch, config):
    """``trainer._soc_loss_and_grads``'s data, rows and occlusions for a
    list of prepared examples that is one training batch."""
    data = _enc.assemble([ex.aug for ex in batch], config)
    return data, np.arange(len(batch)), _tr._identity_csr(batch)


def occlusion_penalty(example: PreparedExample, params, config) -> float:
    """Mean squared toxic-logit shift when each identity token is hidden.

    Defined as 0 for comments without identity tokens. Deterministic: no
    dropout is applied in either pass.
    """
    positions = example.identity_positions
    if not positions:
        return 0.0
    logits, _ = forward([example.aug], params, config)
    base_toxic = logits[0, Label.TOXIC]
    total = 0.0
    for pos in positions:
        occ_logits, _ = forward([_occlude(example.aug, pos)], params, config)
        total += float((base_toxic - occ_logits[0, Label.TOXIC]) ** 2)
    return total / len(positions)


def soc_loss_and_grads_combined(batch, params, config, soc_weight):
    """``trainer._soc_loss_and_grads`` as it was before occluded variants
    shared their comment's rows: every occluded copy is a full example
    (``_occlude``), run as a row of its own in one combined forward."""
    targets = [ex for ex in batch if ex.identity_positions]
    if not targets:
        return 0.0, None
    combined = []
    orig_rows = []
    for ex in targets:
        orig_rows.append(len(combined))
        combined.append(ex.aug)
        combined.extend(_occlude(ex.aug, pos) for pos in ex.identity_positions)
    logits, cache = forward(combined, params, config, train_mode=True, dropout_rng=None)
    toxic = logits[:, Label.TOXIC]
    counts = np.array([len(ex.identity_positions) for ex in targets])
    occ_rows = np.delete(np.arange(len(combined)), orig_rows)
    target = np.repeat(np.arange(len(targets)), counts)
    diffs = toxic[orig_rows][target] - toxic[occ_rows]
    penalties = np.bincount(target, weights=diffs * diffs) / counts
    coeff = 2.0 * (soc_weight / len(batch)) / counts
    dlogits = np.zeros_like(logits)
    dlogits[orig_rows, Label.TOXIC] += coeff * np.bincount(target, weights=diffs)
    dlogits[occ_rows, Label.TOXIC] -= coeff[target] * diffs
    grads, _ = _enc.backward(cache, params, config, dlogits)
    return float(np.cumsum(penalties)[-1]) / len(batch), grads


def soc_loss_and_grads_per_target(data, rows, occlusions, params, config, soc_weight):
    """``trainer._soc_loss_and_grads`` as it was before its bookkeeping was
    vectorised: over the same variant batch (``trainer._soc_variants``), one
    penalty and one set of logit gradients per target comment."""
    variants = _tr._soc_variants(data, rows, occlusions)
    if variants is None:
        return 0.0, None
    batch, orig_rows, _ = variants
    # Each target's unchanged variant runs just before its occluded ones.
    ends = np.append(orig_rows[1:], len(batch.src)).tolist()
    logits, cache = _enc.forward(batch, params, config, train_mode=True, dropout_rng=None)
    toxic = logits[:, Label.TOXIC]
    dlogits = np.zeros_like(logits)
    penalty_sum = 0.0
    scale = soc_weight / len(rows)
    for orig_row, end in zip(orig_rows.tolist(), ends):
        first, count = orig_row + 1, end - orig_row - 1
        diffs = toxic[orig_row] - toxic[first:end]
        penalty_sum += float((diffs**2).mean())
        coeff = 2.0 * scale / count
        dlogits[orig_row, Label.TOXIC] += coeff * diffs.sum()
        dlogits[first:end, Label.TOXIC] -= coeff * diffs
    grads, _ = _enc.backward(cache, params, config, dlogits)
    return penalty_sum / len(rows), grads


def train_per_tensor(train_set, val_set, config, schedule, mode, soc_weight=0.0, seed=0):
    """``trainer.train`` as it was before the flat Adam update: parameters
    are separate tensors, the occlusion gradients are added tensor by tensor
    and Adam runs once per tensor. No non-finite check."""
    labels = np.array([int(ex.label) for ex in train_set])
    weights = _tr.class_weights(labels)
    train_data = _enc.assemble([ex.aug for ex in train_set], config)
    occlusions = _tr._identity_csr(train_set)
    val_data = _enc.assemble([ex.aug for ex in val_set], config)
    val_labels = [ex.label for ex in val_set]
    params = _enc.init(config)
    moments = {name: (np.zeros_like(t), np.zeros_like(t)) for name, t in params.items()}
    ctrl = _tr.HalvingController(schedule.lr0, schedule.max_halvings, schedule.halving_factor)
    history = _tr.TrainHistory()
    best_params = None
    rng = np.random.default_rng(seed)
    step = 0
    n = len(train_set)
    for _epoch in range(schedule.epoch_cap):
        order = rng.permutation(n)
        for start in range(0, n, schedule.batch_size):
            chunk = order[start : start + schedule.batch_size]
            batch = [train_set[j] for j in chunk]
            step += 1
            logits, cache = forward(
                [ex.aug for ex in batch], params, config, train_mode=True, dropout_rng=rng,
            )
            loss, dlogits = _tr._batch_loss_grad(logits, labels[chunk], weights)
            grads, _ = _enc.backward(cache, params, config, dlogits)
            if soc_weight > 0.0:
                penalty, soc_grads = _tr._soc_loss_and_grads(
                    train_data, chunk, occlusions, params, config, soc_weight)
                loss += soc_weight * penalty
                if soc_grads is not None:
                    for name in grads:
                        grads[name] += soc_grads[name]
            for name, tensor in params.items():
                m, v = moments[name]
                g = grads[name]
                m *= _tr.ADAM_BETA1
                m += (1.0 - _tr.ADAM_BETA1) * g
                v *= _tr.ADAM_BETA2
                v += (1.0 - _tr.ADAM_BETA2) * g * g
                mhat = m / (1.0 - _tr.ADAM_BETA1**step)
                vhat = v / (1.0 - _tr.ADAM_BETA2**step)
                tensor -= ctrl.lr * mhat / (np.sqrt(vhat) + _tr.ADAM_EPS)
            val_f1 = None
            if step % schedule.val_every == 0:
                val_f1 = _tr.validation_f1(params, config, val_data, val_labels)
                if ctrl.observe(val_f1) == "improved":
                    best_params = params.copy()
            history.entries.append(_tr.HistoryEntry(step, loss, val_f1, ctrl.lr, ctrl.halvings))
            if ctrl.exhausted:
                history.stop_reason = "max_halvings"
                return (best_params if best_params is not None else params), history
    history.stop_reason = "epoch_cap"
    return (best_params if best_params is not None else params), history


# ---------------------------------------------------------------------------
# Frozen copies of the feature pass and the audit as they were before the
# audit reused the trainer's per-comment features: every scoring call splits
# its own text and recomputes each form's sense means, and the audit scores
# and detects each comment again. The new code must equal them exactly.


def word_split(text: str) -> list[str]:
    tokens: list[str] = []
    for chunk in text.lower().split():
        lead: list[str] = []
        while chunk and not chunk[0].isalnum():
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and not chunk[-1].isalnum():
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


def _mean(lexicon, form, attr):
    senses = lexicon.senses(form)
    return sum(getattr(e, attr) for e in senses) / len(senses)


def _match_at(tokens, i, lexicon):
    limit = min(lexicon.max_form_words, len(tokens) - i)
    for width in range(limit, 0, -1):
        form = " ".join(tokens[i : i + width])
        if form in lexicon:
            return form, width
    return None


def assess(tokens, lexicon) -> list[Assessment]:
    tokens = list(tokens)
    out: list[Assessment] = []
    pending = None
    i = 0
    while i < len(tokens):
        m = _match_at(tokens, i, lexicon)
        if m is None:
            pending = None
            i += 1
            continue
        form, width = m
        if (
            width == 1
            and _mean(lexicon, form, "intensity") != 1.0
            and _match_at(tokens, i + 1, lexicon) is not None
        ):
            pending = _mean(lexicon, form, "intensity")
            i += 1
            continue
        subj = _mean(lexicon, form, "subjectivity")
        pol = _mean(lexicon, form, "polarity")
        neg_idx = i - 1 if pending is None else i - 2
        if pending is not None:
            subj = min(1.0, max(0.0, subj * pending))
            pol = min(1.0, max(-1.0, pol * pending))
        if neg_idx >= 0 and tokens[neg_idx] in lexicon.negations:
            pol = -pol
        out.append(Assessment(i, i + width, tuple(tokens[i : i + width]), subj, pol))
        pending = None
        i += width
    return out


def score(text, lexicon) -> SubjectivityScore:
    tokens = [t for t in word_split(text) if any(ch.isalnum() for ch in t)]
    assessments = assess(tokens, lexicon)
    if not assessments:
        return SubjectivityScore(0.0, 0)
    value = sum(a.subjectivity for a in assessments) / len(assessments)
    return SubjectivityScore(min(1.0, max(0.0, value)), len(assessments))


def identity_token_positions(tokens, id_lexicon, max_len):
    positions = []
    for i, tok in enumerate(tokens):
        if i >= max_len - 2:
            break
        if tok in id_lexicon.terms:
            positions.append(i + 1)
    return tuple(positions)


def prepare_examples(comments, vocab, subj_lexicon, id_lexicon, max_len, mode):
    """(augmented example, identity positions) per comment, split twice."""
    out = []
    for c in comments:
        tokens = word_split(c.text)
        s = score(c.text, subj_lexicon)
        aug = augment(encode(tokens, vocab, max_len), s, detect(c.text, id_lexicon).present, mode)
        out.append((aug, identity_token_positions(tokens, id_lexicon, max_len)))
    return out


def features(comments, id_lexicon, subj_lexicon):
    """Each comment's audit features, scored and detected from its text."""
    return [
        _audit.CommentFeatures(score(c.text, subj_lexicon).value,
                               detect(c.text, id_lexicon).terms)
        for c in comments
    ]


def bias_groups(comments, preds, golds, id_lexicon, subj_lexicon):
    comments, preds, golds = list(comments), list(preds), list(golds)
    buckets = {(o, w): [] for o in _audit.OUTCOMES for w in (True, False)}
    for comment, pred, gold in zip(comments, preds, golds):
        key = (_audit._outcome(pred, gold), detect(comment.text, id_lexicon).present)
        buckets[key].append(score(comment.text, subj_lexicon).value)
    return {
        key: _audit.BiasCell(key[0], key[1], tuple(vals),
                             _audit.quartiles(vals) if vals else None)
        for key, vals in buckets.items()
    }


def error_listing(comments, preds, golds, id_lexicon, subj_lexicon):
    rows = []
    for comment, pred, gold in zip(comments, preds, golds):
        outcome = _audit._outcome(pred, gold)
        if outcome not in ("FP", "FN"):
            continue
        rows.append(_audit.ErrorRow(
            comment.id, comment.text, outcome, detect(comment.text, id_lexicon).terms,
            score(comment.text, subj_lexicon).value,
        ))
    rows.sort(key=lambda r: (r.error, -r.subjectivity, r.comment_id))
    return rows


def audit_report(comments, preds, golds, id_lexicon, subj_lexicon):
    counts = _audit.confusion(preds, golds)
    return _audit.AuditReport(
        counts,
        _audit.f1(counts),
        bias_groups(comments, preds, golds, id_lexicon, subj_lexicon),
        tuple(error_listing(comments, preds, golds, id_lexicon, subj_lexicon)),
    )
