"""Desk-scale transformer encoder classifier with explicit backprop.

Double precision throughout. Attention masking is key-side: a position with
mask bit 0 (padding or a gated-off slot) receives exactly zero attention
weight from every query, so masked content cannot leak into the CLS logits.
Normalization layers are RMS-style (scale by root-mean-square, no mean
subtraction): the slot embedding is a constant fill value replicated across
all model dimensions, and subtracting the per-position mean would erase such
a component exactly, severing the slot from the logits.

Blocks are pre-norm; the classification head reads the CLS position after a
final normalization. Dropout masks are stored in the forward cache so the
backward pass replays them exactly.

Only CLS reaches the head, so the last block computes keys and values for
every position but its queries, attention output, residual, second norm and
feed-forward for the CLS row alone, and the final norm sees only CLS. This
is exact, not an approximation: norms, projections, the feed-forward and the
residual act on each position independently, and attention lets other
positions reach CLS only through their keys and values, which are still
computed for all of them. Results differ from a full-sequence pass only by
the rounding of differently shaped matrix products.

Each batch is also trimmed to the columns it uses: token positions up to the
longest row's extent (one past its last attended position, ``[SEP]`` for an
encoded comment), then the slot, which keeps its ``pos_emb[max_len]`` row.
This is exact too. Every dropped column is masked in every row, and a masked
key gets weight ``exp(-inf) = 0``, so its value never reaches CLS. Padded
positions reach CLS through nothing else, so their gradients are
identically zero, and the dropped ``tok_emb``/``pos_emb`` contributions are
zeros. Dropout masks are drawn at the full ``(b, seq_len, d)`` shape and then
narrowed to the kept columns and rows, so the random stream is the one a
full-sequence pass would consume.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .augment import AugmentedExample
from .errors import ConfigError, ContractError, ResourceError, check_fields

CHECKPOINT_MAGIC = b"SSENCPT1"
_NORM_EPS = 1e-9
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


@dataclass(frozen=True)
class ModelConfig:
    max_len: int
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    n_classes: int = 2
    dropout_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_fields(ModelConfig, vars(self), "ModelConfig")
        if self.max_len < 3:
            raise ConfigError("max_len must be at least 3")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must cover the specials")
        if self.d_model <= 0 or self.d_ff <= 0 or self.n_heads <= 0:
            raise ConfigError("model dimensions must be positive")
        if self.n_layers < 0:
            raise ConfigError("n_layers must be non-negative")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0,1)")
        if self.n_classes != 2:
            raise ConfigError("classifier is binary; n_classes is fixed at 2")

    @property
    def seq_len(self) -> int:
        """Positions seen by the encoder: max_len token slots plus the slot."""
        return self.max_len + 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``: every field must be present, and no other key."""
        check_fields(cls, d, cls.__name__, complete=True)
        return cls(**d)


class EncoderParams:
    """Named tensor container; shapes follow ``param_shapes``."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self._tensors = {k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self._tensors[name] = np.asarray(value, dtype=np.float64)

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> tuple[str, ...]:
        return tuple(self._tensors)

    def items(self):
        return self._tensors.items()

    def copy(self) -> "EncoderParams":
        return EncoderParams({k: v.copy() for k, v in self._tensors.items()})

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams({k: np.zeros_like(v) for k, v in self._tensors.items()})


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, config.d_model),
        "pos_emb": (config.seq_len, config.d_model),
        "emb_norm.gain": (config.d_model,),
        "emb_norm.bias": (config.d_model,),
    }
    for i in range(config.n_layers):
        p = f"layer{i}"
        for proj in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{proj}"] = (config.d_model, config.d_model)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[f"{p}.attn.{b}"] = (config.d_model,)
        shapes[f"{p}.norm1.gain"] = (config.d_model,)
        shapes[f"{p}.norm1.bias"] = (config.d_model,)
        shapes[f"{p}.ff.w1"] = (config.d_model, config.d_ff)
        shapes[f"{p}.ff.b1"] = (config.d_ff,)
        shapes[f"{p}.ff.w2"] = (config.d_ff, config.d_model)
        shapes[f"{p}.ff.b2"] = (config.d_model,)
        shapes[f"{p}.norm2.gain"] = (config.d_model,)
        shapes[f"{p}.norm2.bias"] = (config.d_model,)
    shapes["final_norm.gain"] = (config.d_model,)
    shapes["final_norm.bias"] = (config.d_model,)
    shapes["head.w"] = (config.d_model, config.n_classes)
    shapes["head.b"] = (config.n_classes,)
    return shapes


def init(config: ModelConfig) -> EncoderParams:
    """Seed-deterministic init: scaled-uniform weights, gains 1, biases 0."""
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            tensors[name] = np.ones(shape)
        elif len(shape) == 1:
            tensors[name] = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
    return EncoderParams(tensors)


def validate_params(params: EncoderParams, config: ModelConfig) -> None:
    shapes = param_shapes(config)
    for name, shape in shapes.items():
        if name not in params:
            raise ContractError(f"missing parameter {name}")
        if params[name].shape != shape:
            raise ContractError(
                f"parameter {name} has shape {params[name].shape}, expected {shape}"
            )
        if not np.all(np.isfinite(params[name])):
            raise ContractError(f"parameter {name} contains non-finite values")
    extra = set(params.names()) - set(shapes)
    if extra:
        raise ContractError(f"unexpected parameters: {sorted(extra)}")


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
    dx = r * dxhat - (r * r * r / dim) * x * inner
    return dx, dgain, dbias


# Powers are written as products: numpy computes ``u**3`` through ``pow``,
# which is many times slower than ``u * u * u``.
def _gelu(u):
    t = np.tanh(_GELU_C * (u + _GELU_A * u * u * u))
    return 0.5 * u * (1.0 + t)


def _gelu_grad(u):
    t = np.tanh(_GELU_C * (u + _GELU_A * u * u * u))
    return 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * u * u)


def _split_heads(x, n_heads):
    b, length, d = x.shape
    return x.reshape(b, length, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, length, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * dh)


def _dropout_mask(rng, shape, rate):
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def _assemble(batch, config):
    """Token ids, key mask and slot fill of a batch, trimmed to the token
    columns before the longest extent; the key mask's last column is the slot."""
    for ex in batch:
        if len(ex.base.ids) != config.max_len:
            raise ContractError(
                f"example length {len(ex.base.ids)} does not match max_len {config.max_len}"
            )
    # At least the CLS column, which the head reads.
    width = max(1, max(ex.base.extent for ex in batch))
    ids = np.array([ex.base.ids[:width] for ex in batch], dtype=np.int64)
    kmask = np.empty((len(batch), width + 1))
    kmask[:, :width] = [ex.base.mask[:width] for ex in batch]
    kmask[:, width] = [ex.slot_mask for ex in batch]
    fill = np.array([ex.slot_fill for ex in batch], dtype=np.float64)
    if ids.max(initial=0) >= config.vocab_size or ids.min(initial=0) < 0:
        raise ContractError("token id outside the configured vocabulary")
    return ids, kmask, fill


def _query_rows(layer: int, config: ModelConfig):
    """Positions a block computes queries, residual and FF for: only CLS in
    the last block, since nothing after it reads any other position."""
    return slice(0, 1) if layer == config.n_layers - 1 else slice(None)


def forward(batch, params, config, train_mode: bool = False, dropout_rng=None):
    """Run the classifier; returns (logits, cache), cache None in inference.

    Dropout fires only when train_mode is set, the configured rate is
    positive and a generator is supplied; the occlusion regularizer relies
    on deterministic passes with ``dropout_rng=None``.
    """
    if not batch:
        raise ContractError("forward needs a non-empty batch")
    ids, kmask, fill = _assemble(batch, config)
    b, width = ids.shape
    lm, d = config.max_len, config.d_model
    dh = d // config.n_heads
    use_dropout = train_mode and config.dropout_rate > 0.0 and dropout_rng is not None
    # Full-sequence index of each kept column: the tokens, then the slot.
    kept = np.append(np.arange(width), lm)

    def drop(cols):
        """Dropout mask drawn at the full sequence shape, so the random stream
        is the one a full pass consumes, then narrowed to ``cols``."""
        full = _dropout_mask(dropout_rng, (b, config.seq_len, d), config.dropout_rate)
        return full[:, cols]

    x = np.empty((b, width + 1, d))
    x[:, :width] = params["tok_emb"][ids] + params["pos_emb"][None, :width]
    # Slot embedding: fill value on every dimension plus the slot position row.
    x[:, width] = fill[:, None] + params["pos_emb"][lm]

    h, emb_cache = _rms_forward(x, params["emb_norm.gain"], params["emb_norm.bias"])
    emb_drop = None
    if use_dropout:
        emb_drop = drop(kept)
        h = h * emb_drop

    add_mask = np.where(kmask[:, None, None, :] > 0, 0.0, -np.inf)
    layer_caches = []
    for i in range(config.n_layers):
        p = f"layer{i}"
        rows = _query_rows(i, config)
        a, ln1_cache = _rms_forward(h, params[f"{p}.norm1.gain"], params[f"{p}.norm1.bias"])
        q = _split_heads(
            a[:, rows] @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"], config.n_heads
        )
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
            attn_drop = drop(kept[rows])
            attn = attn * attn_drop
        h_mid = h[:, rows] + attn

        f, ln2_cache = _rms_forward(
            h_mid, params[f"{p}.norm2.gain"], params[f"{p}.norm2.bias"]
        )
        u = f @ params[f"{p}.ff.w1"] + params[f"{p}.ff.b1"]
        g = _gelu(u)
        z = g @ params[f"{p}.ff.w2"] + params[f"{p}.ff.b2"]
        ff_drop = None
        if use_dropout:
            ff_drop = drop(kept[rows])
            z = z * ff_drop
        h_next = h_mid + z

        layer_caches.append({
            "ln1": ln1_cache, "a": a, "q": q, "k": k, "v": v, "probs": probs,
            "ocat": ocat, "attn_drop": attn_drop, "ln2": ln2_cache, "f": f,
            "u": u, "g": g, "ff_drop": ff_drop,
        })
        h = h_next

    cls, final_cache = _rms_forward(
        h[:, 0], params["final_norm.gain"], params["final_norm.bias"]
    )
    logits = cls @ params["head.w"] + params["head.b"]

    if not train_mode:
        return logits, None
    cache = {
        "ids": ids, "kmask": kmask, "fill": fill, "emb": emb_cache,
        "emb_drop": emb_drop, "layers": layer_caches, "final": final_cache,
        "cls": cls,
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
    b, width = cache["ids"].shape
    if dlogits.shape != (b, config.n_classes):
        raise ContractError(f"upstream gradient shape {dlogits.shape} mismatch")
    lm, d = config.max_len, config.d_model
    dh = d // config.n_heads
    grads: dict[str, np.ndarray] = {}

    grads["head.w"] = cache["cls"].T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    dcls = dlogits @ params["head.w"].T

    dcls_in, dgain, dbias = _rms_backward(dcls, params["final_norm.gain"], cache["final"])
    grads["final_norm.gain"] = dgain
    grads["final_norm.bias"] = dbias
    if config.n_layers:
        dcur = dcls_in[:, None, :]
    else:
        dcur = np.zeros((b, width + 1, d))
        dcur[:, 0] = dcls_in

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
        rows = _query_rows(i, config)

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

        a = lc["a"]
        da = np.zeros_like(a)
        for name, dten, in_rows in (("wq", dq, rows), ("wk", dk, slice(None)),
                                    ("wv", dv, slice(None))):
            merged = _merge_heads(dten)
            dw, db, dx = _linear_back(a[:, in_rows], params[f"{p}.attn.{name}"], merged)
            grads[f"{p}.attn.{name}"] = dw
            grads[f"{p}.attn.b{name[1]}"] = db
            da[:, in_rows] += dx
        dcur, dgain1, dbias1 = _rms_backward(da, params[f"{p}.norm1.gain"], lc["ln1"])
        grads[f"{p}.norm1.gain"] = dgain1
        grads[f"{p}.norm1.bias"] = dbias1
        dcur[:, rows] += dmid

    if cache["emb_drop"] is not None:
        dcur = dcur * cache["emb_drop"]
    dx, dgain_e, dbias_e = _rms_backward(dcur, params["emb_norm.gain"], cache["emb"])
    grads["emb_norm.gain"] = dgain_e
    grads["emb_norm.bias"] = dbias_e

    # Dropped columns have zero gradient, so their rows stay zero.
    dtok = np.zeros_like(params["tok_emb"])
    np.add.at(dtok, cache["ids"], dx[:, :width])
    grads["tok_emb"] = dtok
    dpos = np.zeros_like(params["pos_emb"])
    dpos[:width] = dx[:, :width].sum(axis=0)
    dpos[lm] = dx[:, width].sum(axis=0)
    grads["pos_emb"] = dpos
    slot_fill_grad = dx[:, width, :].sum(axis=-1)
    return grads, slot_fill_grad


def save_params(params: EncoderParams, path) -> None:
    """Flat binary checkpoint: magic, JSON shape manifest, raw tensors."""
    manifest = {
        "tensors": [
            {"name": name, "shape": list(tensor.shape), "dtype": "<f8"}
            for name, tensor in params.items()
        ]
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(payload).to_bytes(8, "little"))
        fh.write(payload)
        for _, tensor in params.items():
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_params(path) -> EncoderParams:
    p = Path(path)
    if not p.exists():
        raise ResourceError(f"checkpoint not found: {p}")
    blob = p.read_bytes()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ContractError(f"{p} is not a recognised checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    manifest_len = int.from_bytes(blob[offset : offset + 8], "little")
    offset += 8
    manifest = json.loads(blob[offset : offset + manifest_len].decode("utf-8"))
    offset += manifest_len
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise ContractError(f"checkpoint {p} truncated at tensor {entry['name']}")
        arr = np.frombuffer(blob[offset : offset + nbytes], dtype="<f8").reshape(shape)
        tensors[entry["name"]] = arr.copy()
        offset += nbytes
    if offset != len(blob):
        raise ContractError(f"checkpoint {p} has trailing bytes")
    return EncoderParams(tensors)
