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
backward pass replays them exactly. A norm caches its normalized input
``xhat`` and reciprocal RMS ``r``, not its input: the backward pass reads
only those, as ``dx = r * (dxhat - xhat * (dxhat . xhat) / d)``. An
inference pass keeps no caches, so each block's arrays are freed as the next
one runs.

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

The encoder reads a ``Batch`` of arrays that ``assemble`` builds once per
example set and ``Batch.take`` slices. A batch may run several key-mask
variants of one row, as the occlusion regularizer does: ``ids`` and ``fill``
hold one row per comment, ``kmask`` one key mask per variant and ``src`` the
row of each variant. A key mask does not change the embedding, ``emb_norm``,
layer 0's ``norm1`` or its Q, K and V, so these run once per row. Right
after layer 0's Q, K and V, the queries, keys, values and the residual are
gathered by ``src``, and all that follows runs per variant; with no layer,
the gather comes before the final norm. The backward pass sums the
variants' gradients back onto their rows at the same points, with the
bincount that also sums the token-embedding gradient. A plain batch has
``src`` ``None``: nothing is gathered or summed, so it runs the same
operations it always did.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import replacing
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


def flat_params(params: EncoderParams) -> tuple[np.ndarray, EncoderParams]:
    """Copy ``params`` into one contiguous vector, tensors in ``names()``
    order, and return it with an ``EncoderParams`` of named views into it:
    an in-place update of the vector updates every tensor."""
    flat = np.concatenate([t for _, t in params.items()], axis=None)
    views, offset = {}, 0
    for name, tensor in params.items():
        views[name] = flat[offset : offset + tensor.size].reshape(tensor.shape)
        offset += tensor.size
    return flat, EncoderParams(views)


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
    """RMS norm over the last axis; the cache is ``(xhat, r)``, the normalized
    input and the reciprocal RMS, which is all the backward pass reads."""
    d = x.shape[-1]
    r = 1.0 / np.sqrt(np.einsum("...i,...i->...", x, x)[..., None] / d + _NORM_EPS)
    xhat = x * r
    return gain * xhat + bias, (xhat, r)


def _rms_backward(dy, gain, cache):
    # With xhat = x * r: dx = r * dxhat - r**3 / d * x * (dxhat . x)
    #                       = r * (dxhat - xhat * (dxhat . xhat) / d).
    xhat, r = cache
    d = xhat.shape[-1]
    dgain = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbias = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gain
    inner = np.einsum("...i,...i->...", dxhat, xhat)[..., None]
    dx = r * (dxhat - xhat * inner / d)
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


def _dropout_mask(rng, shape, rate, cols=slice(None)):
    """Dropout mask drawn at ``shape``, so the random stream is the one a
    full pass consumes, and narrowed to columns ``cols`` of axis 1 before it
    is compared and scaled: elementwise, so the kept entries are the bits
    the full mask has there."""
    keep = 1.0 - rate
    return (rng.random(shape)[:, cols] < keep) / keep


class TokenKeys(NamedTuple):
    n_real: int  # unmasked token keys


class VariantKeys(NamedTuple):
    """The keys one variant of a ``Batch`` attends, under the names an
    ``AugmentedExample`` gives them."""

    base: TokenKeys
    slot_mask: int


@dataclass(frozen=True)
class Batch:
    """Encoder input as arrays. ``ids`` (int32) and ``fill`` hold one row per
    comment and ``extent`` each row's extent; the token columns stop at the
    longest one. ``kmask`` (bool) holds one key mask per variant, its last
    column the slot, and ``src`` the row of each variant; ``None`` means one
    variant per row, in row order."""

    ids: np.ndarray
    fill: np.ndarray
    kmask: np.ndarray
    extent: np.ndarray
    src: np.ndarray | None = None

    def __len__(self) -> int:
        """The number of variants: the rows of logits ``forward`` returns."""
        return len(self.kmask)

    def __iter__(self):
        """Each variant's ``VariantKeys``, so that code that reads a batch as
        a list of examples, such as the benchmark's tracer counting rows and
        masked keys, reads the variants the encoder runs."""
        n_real = self.kmask[:, :-1].sum(axis=1).tolist()
        slot = self.kmask[:, -1].astype(int).tolist()
        return (VariantKeys(TokenKeys(n), m) for n, m in zip(n_real, slot))

    def take(self, rows) -> "Batch":
        """Rows ``rows`` of a plain batch, trimmed to the token columns before
        their longest extent (at least the CLS column, which the head reads)."""
        width = max(1, int(self.extent[rows].max()))
        cols = np.append(np.arange(width), self.ids.shape[1])
        return Batch(self.ids[rows, :width], self.fill[rows],
                     self.kmask[np.ix_(rows, cols)], self.extent[rows])


def assemble(examples: list[AugmentedExample], config: ModelConfig) -> Batch:
    """The plain batch of ``examples``, built and checked once per example
    set (each row ``max_len`` long, every id in the vocabulary) and then
    sliced with ``Batch.take``."""
    if not examples:
        raise ContractError("an encoder batch must be non-empty")
    for ex in examples:
        if len(ex.base.ids) != config.max_len:
            raise ContractError(
                f"example length {len(ex.base.ids)} does not match max_len {config.max_len}"
            )
    extent = np.array([ex.base.extent for ex in examples], dtype=np.int32)
    width = max(1, int(extent.max()))
    ids = np.array([ex.base.ids[:width] for ex in examples], dtype=np.int32)
    if ids.max() >= config.vocab_size or ids.min() < 0:
        raise ContractError("token id outside the configured vocabulary")
    kmask = np.empty((len(examples), width + 1), dtype=bool)
    kmask[:, :width] = [ex.base.mask[:width] for ex in examples]
    kmask[:, width] = [ex.slot_mask for ex in examples]
    fill = np.array([ex.slot_fill for ex in examples], dtype=np.float64)
    return Batch(ids, fill, kmask, extent)


def _scatter_rows(ids, rows, n):
    """Add each ``d``-vector of ``rows`` (shape ``ids.shape + (d,)``) into row
    ``ids[...]`` of an ``(n, d)`` zero array. One bincount over flat
    (id, dim) bins adds in the order ``np.add.at`` does, so the sums are the
    same bits."""
    d = rows.shape[-1]
    bins = (ids[..., None].astype(np.intp) * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def _query_rows(layer: int, config: ModelConfig):
    """Positions a block computes queries, residual and FF for: only CLS in
    the last block, since nothing after it reads any other position."""
    return slice(0, 1) if layer == config.n_layers - 1 else slice(None)


def forward(batch: Batch, params, config, train_mode: bool = False, dropout_rng=None):
    """Run the classifier; returns (logits, cache), cache None in inference.
    There is one row of logits per variant.

    Dropout fires only when train_mode is set, the configured rate is
    positive and a generator is supplied; the occlusion regularizer relies
    on deterministic passes with ``dropout_rng=None``.
    """
    ids, kmask, fill, src = batch.ids, batch.kmask, batch.fill, batch.src
    b, width = ids.shape
    lm, d = config.max_len, config.d_model
    dh = d // config.n_heads
    use_dropout = train_mode and config.dropout_rate > 0.0 and dropout_rng is not None
    # Full-sequence index of each kept column: the tokens, then the slot.
    kept = np.append(np.arange(width), lm)

    def drop(n, cols):
        """Dropout mask for ``n`` rows, drawn at the full sequence shape and
        narrowed to ``cols``."""
        return _dropout_mask(dropout_rng, (n, config.seq_len, d), config.dropout_rate, cols)

    def norm(x, name):
        """RMS norm ``name`` of ``x``; its cache is kept for training only."""
        y, norm_cache = _rms_forward(x, params[f"{name}.gain"], params[f"{name}.bias"])
        return y, norm_cache if train_mode else None

    # ``h`` is rebound at every step below, so a norm's input does not stay
    # alive beside the ``xhat`` its cache holds.
    h = np.empty((b, width + 1, d))
    h[:, :width] = params["tok_emb"][ids] + params["pos_emb"][None, :width]
    # Slot embedding: fill value on every dimension plus the slot position row.
    h[:, width] = fill[:, None] + params["pos_emb"][lm]

    h, emb_cache = norm(h, "emb_norm")
    emb_drop = None
    if use_dropout:
        emb_drop = drop(b, kept)
        h = h * emb_drop

    add_mask = np.where(kmask[:, None, None, :], 0.0, -np.inf)
    layer_caches = []
    for i in range(config.n_layers):
        p = f"layer{i}"
        rows = _query_rows(i, config)
        a, ln1_cache = norm(h, f"{p}.norm1")
        q = _split_heads(
            a[:, rows] @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"], config.n_heads
        )
        k = _split_heads(a @ params[f"{p}.attn.wk"] + params[f"{p}.attn.bk"], config.n_heads)
        v = _split_heads(a @ params[f"{p}.attn.wv"] + params[f"{p}.attn.bv"], config.n_heads)
        res = h[:, rows]
        if i == 0 and src is not None:  # from here on, each variant runs apart
            q, k, v, res = q[src], k[src], v[src], res[src]
        # Softmax in place: one (b, heads, rows, width + 1) buffer, not four.
        scores = q @ k.transpose(0, 1, 3, 2)
        scores /= np.sqrt(dh)
        scores += add_mask
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores, out=scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        ocat = _merge_heads(probs @ v)
        attn = ocat @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"]
        attn_drop = None
        if use_dropout:
            attn_drop = drop(len(attn), kept[rows])
            attn = attn * attn_drop
        h = res + attn

        f, ln2_cache = norm(h, f"{p}.norm2")
        u = f @ params[f"{p}.ff.w1"] + params[f"{p}.ff.b1"]
        g = _gelu(u)
        z = g @ params[f"{p}.ff.w2"] + params[f"{p}.ff.b2"]
        ff_drop = None
        if use_dropout:
            ff_drop = drop(len(z), kept[rows])
            z = z * ff_drop
        h = h + z

        if train_mode:  # inference frees each layer's arrays as the next one runs
            layer_caches.append({
                "ln1": ln1_cache, "a": a, "q": q, "k": k, "v": v, "probs": probs,
                "ocat": ocat, "attn_drop": attn_drop, "ln2": ln2_cache, "f": f,
                "u": u, "g": g, "ff_drop": ff_drop,
            })

    h = h[:, 0]
    if not config.n_layers and src is not None:
        h = h[src]
    cls, final_cache = norm(h, "final_norm")
    logits = cls @ params["head.w"] + params["head.b"]

    if not train_mode:
        return logits, None
    cache = {
        "ids": ids, "kmask": kmask, "fill": fill, "src": src, "emb": emb_cache,
        "emb_drop": emb_drop, "layers": layer_caches, "final": final_cache,
        "cls": cls,
    }
    return logits, cache


def backward(cache, params, config, dlogits):
    """Backprop from an upstream logit gradient.

    Returns (gradients keyed like the parameters, per-row gradient of the
    loss with respect to slot_fill). ``dlogits`` has one row per variant.
    """
    if cache is None:
        raise ContractError("backward needs the cache from a train_mode forward")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    b, width = cache["ids"].shape
    src = cache["src"]
    if dlogits.shape != (len(cache["kmask"]), config.n_classes):
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

    def to_rows(x):
        """Each variant's gradient summed onto its row."""
        return _scatter_rows(src, x.reshape(len(src), -1), b).reshape((b,) + x.shape[1:])

    def _linear_back(x, w, dy):
        din = x.shape[-1]
        dout = dy.shape[-1]
        dw = x.reshape(-1, din).T @ dy.reshape(-1, dout)
        db = dy.reshape(-1, dout).sum(axis=0)
        dx = dy @ w.T
        return dw, db, dx

    if config.n_layers:
        dcur = dcls_in[:, None, :]
    else:
        if src is not None:
            dcls_in = to_rows(dcls_in)
        dcur = np.zeros((b, width + 1, d))
        dcur[:, 0] = dcls_in

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
        if i == 0 and src is not None:
            dq, dk, dv, dmid = to_rows(dq), to_rows(dk), to_rows(dv), to_rows(dmid)

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
    grads["tok_emb"] = _scatter_rows(cache["ids"], dx[:, :width], config.vocab_size)
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
    with replacing(path, "wb") as fh:
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
