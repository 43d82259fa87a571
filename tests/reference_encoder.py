"""Full-sequence reference encoder for tests.

A frozen copy of the encoder's forward and backward passes as they were
before the last block and the final norm were cut down to the CLS row and
batches were trimmed to their longest row: every batch spans all
``max_len + 1`` positions, every block, the final norm and their gradients
run on all of them, GELU and the RMS backward use ``**``, the RMS norms
cache their input and reduce with ``np.mean``/``np.sum``, and the token
embedding gradient is an ``np.add.at`` scatter.
``tests/test_reference_path.py`` checks the production encoder against it.
The structural helpers (head split/merge) are shared with
``subsense.encoder``; assembly and the arithmetic helpers below are kept as
they were. Dropout masks are passed in at the full ``(b, max_len + 1, d)``
shape rather than drawn, since the production encoder draws each mask at
the shape of the array it multiplies.
"""

import numpy as np

from subsense.encoder import (
    N_CLASSES,
    _GELU_A,
    _GELU_C,
    _NORM_EPS,
    _split_heads,
)
from subsense.errors import ContractError


def _merge_heads(x):
    """The heads of ``x`` side by side again."""
    b, h, length, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * dh)


def _assemble(batch, config):
    b = len(batch)
    ids = np.empty((b, config.max_len), dtype=np.int64)
    kmask = np.zeros((b, config.seq_len))
    fill = np.empty(b)
    for row, ex in enumerate(batch):
        if len(ex.base.ids) != config.max_len:
            raise ContractError(
                f"example length {len(ex.base.ids)} does not match max_len {config.max_len}"
            )
        ids[row] = ex.base.ids
        kmask[row, : config.max_len] = ex.base.mask
        kmask[row, config.max_len] = ex.slot_mask
        fill[row] = ex.slot_fill
    if ids.max(initial=0) >= config.vocab_size or ids.min(initial=0) < 0:
        raise ContractError("token id outside the configured vocabulary")
    return ids, kmask, fill


def _rms_forward(x, gain, bias):
    r = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _NORM_EPS)
    xhat = x * r
    return gain * xhat + bias, (x, r)


def _rms_backward(dy, gain, cache):
    x, r = cache
    xhat = x * r
    axes = tuple(range(dy.ndim - 1))
    dgain = np.sum(dy * xhat, axis=axes)
    dbias = np.sum(dy, axis=axes)
    dxhat = dy * gain
    dim = x.shape[-1]
    inner = np.sum(dxhat * x, axis=-1, keepdims=True)
    dx = r * dxhat - (r**3 / dim) * x * inner
    return dx, dgain, dbias


def _gelu(u):
    t = np.tanh(_GELU_C * (u + _GELU_A * u**3))
    return 0.5 * u * (1.0 + t)


def _gelu_grad(u):
    t = np.tanh(_GELU_C * (u + _GELU_A * u**3))
    return 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * u**2)


def forward(batch, params, config, train_mode: bool = False, masks=None):
    """Run the classifier; returns (logits, cache), cache None in inference.

    ``masks`` applies dropout in train mode: ``(emb_drop, [(attn_drop,
    ff_drop) per layer])``, each of shape ``(b, max_len + 1, d)``. None
    runs without dropout.
    """
    if not batch:
        raise ContractError("forward needs a non-empty batch")
    ids, kmask, fill = _assemble(batch, config)
    b = len(batch)
    lm, length, d = config.max_len, config.seq_len, config.d_model
    dh = d // config.n_heads
    use_dropout = train_mode and masks is not None

    x = np.empty((b, length, d))
    x[:, :lm] = params["tok_emb"][ids] + params["pos_emb"][None, :lm]
    # Slot embedding: fill value on every dimension plus the slot position row.
    x[:, lm] = fill[:, None] + params["pos_emb"][lm]

    h, emb_cache = _rms_forward(x, params["emb_norm.gain"], params["emb_norm.bias"])
    emb_drop = None
    if use_dropout:
        emb_drop = masks[0]
        h = h * emb_drop

    add_mask = np.where(kmask[:, None, None, :] > 0, 0.0, -np.inf)
    layer_caches = []
    for i in range(config.n_layers):
        p = f"layer{i}"
        a, ln1_cache = _rms_forward(h, params[f"{p}.norm1.gain"], params[f"{p}.norm1.bias"])
        q = _split_heads(a @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"], config.n_heads)
        k = _split_heads(a @ params[f"{p}.attn.wk"] + params[f"{p}.attn.bk"], config.n_heads)
        v = _split_heads(a @ params[f"{p}.attn.wv"] + params[f"{p}.attn.bv"], config.n_heads)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh) + add_mask
        scores_max = scores.max(axis=-1, keepdims=True)
        expd = np.exp(scores - scores_max)
        probs = expd / expd.sum(axis=-1, keepdims=True)
        ocat = _merge_heads(probs @ v)
        attn = ocat @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"]
        attn_drop = None
        if use_dropout:
            attn_drop = masks[1][i][0]
            attn = attn * attn_drop
        h_mid = h + attn

        f, ln2_cache = _rms_forward(
            h_mid, params[f"{p}.norm2.gain"], params[f"{p}.norm2.bias"]
        )
        u = f @ params[f"{p}.ff.w1"] + params[f"{p}.ff.b1"]
        g = _gelu(u)
        z = g @ params[f"{p}.ff.w2"] + params[f"{p}.ff.b2"]
        ff_drop = None
        if use_dropout:
            ff_drop = masks[1][i][1]
            z = z * ff_drop
        h_next = h_mid + z

        layer_caches.append({
            "ln1": ln1_cache, "a": a, "q": q, "k": k, "v": v, "probs": probs,
            "ocat": ocat, "attn_drop": attn_drop, "ln2": ln2_cache, "f": f,
            "u": u, "g": g, "ff_drop": ff_drop,
        })
        h = h_next

    hf, final_cache = _rms_forward(h, params["final_norm.gain"], params["final_norm.bias"])
    cls = hf[:, 0, :]
    logits = cls @ params["head.w"] + params["head.b"]

    if not train_mode:
        return logits, None
    cache = {
        "ids": ids, "kmask": kmask, "fill": fill, "emb": emb_cache,
        "emb_drop": emb_drop, "layers": layer_caches, "final": final_cache,
        "cls": cls, "batch_size": b,
    }
    return logits, cache


def backward(cache, params, config, dlogits):
    """Backprop from an upstream logit gradient.

    Returns (gradients keyed like the parameters, per-example gradient of
    the loss with respect to slot_fill).
    """
    if cache is None:
        raise ContractError("backward needs the cache from a train_mode forward")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    b = cache["batch_size"]
    if dlogits.shape != (b, N_CLASSES):
        raise ContractError(f"upstream gradient shape {dlogits.shape} mismatch")
    lm, d = config.max_len, config.d_model
    dh = d // config.n_heads
    grads: dict[str, np.ndarray] = {}

    grads["head.w"] = cache["cls"].T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    dcls = dlogits @ params["head.w"].T

    dhf = np.zeros((b, config.seq_len, d))
    dhf[:, 0, :] = dcls
    dcur, dgain, dbias = _rms_backward(dhf, params["final_norm.gain"], cache["final"])
    grads["final_norm.gain"] = dgain
    grads["final_norm.bias"] = dbias

    def _linear_back(x, w, dy):
        din = x.shape[-1]
        dout = dy.shape[-1]
        dw = x.reshape(-1, din).T @ dy.reshape(-1, dout)
        db = dy.sum(axis=(0, 1))
        dx = dy @ w.T
        return dw, db, dx

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}"
        lc = cache["layers"][i]

        dz = dcur.copy()
        if lc["ff_drop"] is not None:
            dz = dz * lc["ff_drop"]
        dw2, db2, dg = _linear_back(lc["g"], params[f"{p}.ff.w2"], dz)
        grads[f"{p}.ff.w2"] = dw2
        grads[f"{p}.ff.b2"] = db2
        du = dg * _gelu_grad(lc["u"])
        dw1, db1, df = _linear_back(lc["f"], params[f"{p}.ff.w1"], du)
        grads[f"{p}.ff.w1"] = dw1
        grads[f"{p}.ff.b1"] = db1
        dmid_ln, dgain2, dbias2 = _rms_backward(df, params[f"{p}.norm2.gain"], lc["ln2"])
        grads[f"{p}.norm2.gain"] = dgain2
        grads[f"{p}.norm2.bias"] = dbias2
        dmid = dcur + dmid_ln

        dattn = dmid.copy()
        if lc["attn_drop"] is not None:
            dattn = dattn * lc["attn_drop"]
        dwo, dbo, docat = _linear_back(lc["ocat"], params[f"{p}.attn.wo"], dattn)
        grads[f"{p}.attn.wo"] = dwo
        grads[f"{p}.attn.bo"] = dbo
        do = _split_heads(docat, config.n_heads)
        probs, v, q, k = lc["probs"], lc["v"], lc["q"], lc["k"]
        dprobs = do @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ do
        # Softmax backward; masked columns carry probability 0 so their
        # score gradient vanishes identically.
        dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        dq = dscores @ k / np.sqrt(dh)
        dk = dscores.transpose(0, 1, 3, 2) @ q / np.sqrt(dh)

        da = np.zeros_like(lc["a"])
        for name, dten in (("wq", dq), ("wk", dk), ("wv", dv)):
            merged = _merge_heads(dten)
            dw, db, dx = _linear_back(lc["a"], params[f"{p}.attn.{name}"], merged)
            grads[f"{p}.attn.{name}"] = dw
            grads[f"{p}.attn.b{name[1]}"] = db
            da += dx
        dh_ln, dgain1, dbias1 = _rms_backward(da, params[f"{p}.norm1.gain"], lc["ln1"])
        grads[f"{p}.norm1.gain"] = dgain1
        grads[f"{p}.norm1.bias"] = dbias1
        dcur = dmid + dh_ln

    if cache["emb_drop"] is not None:
        dcur = dcur * cache["emb_drop"]
    dx, dgain_e, dbias_e = _rms_backward(dcur, params["emb_norm.gain"], cache["emb"])
    grads["emb_norm.gain"] = dgain_e
    grads["emb_norm.bias"] = dbias_e

    dtok = np.zeros_like(params["tok_emb"])
    np.add.at(dtok, cache["ids"], dx[:, :lm])
    grads["tok_emb"] = dtok
    dpos = np.zeros_like(params["pos_emb"])
    dpos[:lm] = dx[:, :lm].sum(axis=0)
    dpos[lm] = dx[:, lm].sum(axis=0)
    grads["pos_emb"] = dpos
    slot_fill_grad = dx[:, lm, :].sum(axis=-1)
    return grads, slot_fill_grad

