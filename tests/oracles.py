"""Single-example oracles for the trainer's batched paths.

``predict`` decides one example the way ``trainer.predict_batch`` decides
each row. ``occlusion_penalty`` runs one forward per occluded identity
token; ``trainer._soc_loss_and_grads`` is checked against it.
"""

from subsense.augment import AugmentedExample
from subsense.datasets import Label
from subsense.encoder import forward
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
