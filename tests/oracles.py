"""Oracles for the batched and single-pass paths.

``predict`` decides one example the way ``trainer.predict_batch`` decides
each row. ``occlusion_penalty`` runs one forward per occluded identity
token; ``trainer._soc_loss_and_grads`` is checked against it. The second
half holds frozen copies of the feature pass and the audit from before the
audit reused the trainer's per-comment features.
"""

from subsense import audit as _audit
from subsense.augment import AugmentedExample, augment
from subsense.datasets import Label
from subsense.encoder import forward
from subsense.identity import detect
from subsense.subjectivity import Assessment, SubjectivityScore
from subsense.textprep import encode
from subsense.trainer import PreparedExample, _decide, _occlude


def predict(params, config, example: AugmentedExample):
    """(label, toxic probability); ties resolve to non-toxic."""
    logits, _ = forward([example], params, config)
    return _decide(logits[0])


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
