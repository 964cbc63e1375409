"""Compact transformer encoder classifier, implemented from scratch on numpy.

Architecture: learned token + position embeddings, pre-layer-norm residual
blocks (masked multi-head self-attention, then a GELU feed-forward), a
final layer norm, and a two-way classification head reading the CLS
position, with hand-written backprop.  The parameters are one vector whose
views ``params`` names; ``init`` gives it in float64 and ``train`` casts it
to float32.  The gradient is a vector of the same layout: backward writes
each parameter's gradient into its view.  Every kernel follows its dtype,
so a trained model trains, predicts and is checkpointed in float32, while
``grad_check`` verifies the same kernels on a float64 copy against central
finite differences.

The id rows are their own mask: a position is live iff its id is not
PAD, which only padding is.  Attention masking is exact: PAD key columns
get -inf before the softmax, so they receive zero attention weight.
Token-wise layers therefore run over the packed live rows of a batch
only; attention alone uses the padded layout.

Training uses decoupled-weight-decay Adam, one update of the vector (decay
applied directly to the matrices, not through the gradient), shuffling keyed by
(seed, epoch), and early stopping on validation loss with restoration of
the best weights.  Dropout draws from a generator keyed by the training
seed.  Validation and ``predict`` both take their logits from ``forward``,
the one eval-mode pass: it runs every set in length order and refuses
non-finite logits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from zipfile import ZIP_STORED, BadZipFile

import numpy as np

from .errors import DataError, NumericError, clip
from .tokenizer import EncodedDataset, Vocab

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_LN_EPS = 1e-5
_GELU_A = 0.044715
_GELU_C = float(np.sqrt(2.0 / np.pi))
_NUM_CLASSES = 2  # non-vulnerable, vulnerable
_GRAD_CHECK_EPSILON = 1e-5  # central-difference step
_GRAD_CHECK_SEED = 0  # keys which coordinates grad_check samples
CHECKPOINT_VERSION = 4
_MAX_PARAMETERS = 2**31  # a config over this is refused before any array is built


def _figure(value) -> str:
    """``value`` as text through clip; an integer too long for str() as about 2**n."""
    try:
        return clip(str(value))
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"about {'-' if value < 0 else ''}2**{value.bit_length() - 1}"


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 2
    hidden_dim: int = 64
    num_heads: int = 4
    ff_dim: int = 256
    max_len: int = 512
    vocab_size: int = 4096
    dropout: float = 0.1

    def __post_init__(self):
        # flags come typed, but a checkpoint's config comes from JSON, where
        # 1.0 and true would pass the range checks below
        sizes = {name: getattr(self, name) for name in (
            "num_layers", "hidden_dim", "num_heads", "ff_dim", "max_len", "vocab_size")}
        for name, value in sizes.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {clip(repr(value))}")
        if isinstance(self.dropout, bool) or not isinstance(self.dropout, (int, float)):
            raise ValueError(f"dropout must be a number, got {clip(repr(self.dropout))}")
        if min(sizes.values()) < 1:
            raise ValueError("all model dimensions must be positive")
        if self.vocab_size <= len(Vocab.RESERVED):
            raise ValueError(f"vocab_size must exceed the {len(Vocab.RESERVED)} reserved "
                             f"ids, got {self.vocab_size}")
        if self.max_len < 2:
            raise ValueError(f"max_len must be >= 2 (CLS plus a token), got {self.max_len}")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(f"hidden_dim {_figure(self.hidden_dim)} not divisible by "
                             f"num_heads {_figure(self.num_heads)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {_figure(self.dropout)}")
        count = _size(self)
        if count > _MAX_PARAMETERS:
            *named, last = (f"{n} {_figure(v)}" for n, v in sizes.items() if n != "num_heads")
            raise ValueError(f"{', '.join(named)} and {last} give {_figure(count)} parameters, "
                             "over the limit of 2**31")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3  # 2e-5 suits fine-tuning large pretrained encoders
    batch_size: int = 8
    epochs: int = 5
    weight_decay: float = 0.01
    early_stop_patience: int = 2
    seed: int = 42

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("learning_rate, batch_size, and epochs must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    stopped_epoch: int = 0


def _size(cfg: ModelConfig) -> int:
    """The parameter count of ``_shapes(cfg)``, by arithmetic alone."""
    H, F = cfg.hidden_dim, cfg.ff_dim
    return ((cfg.vocab_size + cfg.max_len) * H
            + cfg.num_layers * (4 * H * H + 2 * H * F + 9 * H + F)
            + (2 + _NUM_CLASSES) * H + _NUM_CLASSES)


def _shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The parameter layout: each parameter's name and shape, in the order
    its values sit in ``Model.flat``."""
    H, F = cfg.hidden_dim, cfg.ff_dim
    block = dict(ln1_g=(H,), ln1_b=(H,), Wq=(H, H), Wk=(H, H), Wv=(H, H), Wo=(H, H),
                 bq=(H,), bk=(H,), bv=(H,), bo=(H,), ln2_g=(H,), ln2_b=(H,),
                 W1=(H, F), b1=(F,), W2=(F, H), b2=(H,))
    shapes = {"tok_emb": (cfg.vocab_size, H), "pos_emb": (cfg.max_len, H)}
    for l in range(cfg.num_layers):
        shapes.update({f"layers.{l}.{name}": shape for name, shape in block.items()})
    shapes.update(lnf_g=(H,), lnf_b=(H,), head_W=(H, _NUM_CLASSES), head_b=(_NUM_CLASSES,))
    return shapes


class Model:
    """Configuration plus one flat parameter vector, float64 from ``init``
    and float32 once trained.  ``params`` maps each name of the layout to a
    view of ``flat``, so a write through a name lands in the vector."""

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        self.config = config
        self.flat = flat
        shapes = _shapes(config)
        bounds = np.cumsum([math.prod(shape) for shape in shapes.values()])[:-1]
        # a vector of the wrong size leaves some part that cannot take its shape
        self.params = {name: part.reshape(shape) for (name, shape), part
                       in zip(shapes.items(), np.split(flat, bounds))}

    def num_parameters(self) -> int:
        return self.flat.size


def init(cfg: ModelConfig, seed: int) -> Model:
    """Deterministic initialization, in layout order: N(0, 0.02) matrices,
    unit layer-norm gains, zero biases."""
    rng = np.random.default_rng(seed)
    net = Model(cfg, np.zeros(_size(cfg)))
    for name, p in net.params.items():
        if p.ndim == 2:
            p[:] = rng.normal(0.0, 0.02, p.shape)
        elif name.endswith("_g"):
            p[:] = 1.0
    return net


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-form GELU; returns (value, tanh term) so backward can reuse it.
    Built in place, in the order of 0.5 * x * (1 + tanh(C * (x + A*x*x*x)))."""
    t = _GELU_A * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= 0.5 * x
    return y, t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5 * (1 + t) + 0.5 * x * (1 - t*t) * C * (1 + 3A * x * x), in place."""
    g = t * t
    np.subtract(1.0, g, out=g)
    g *= 0.5 * x
    g *= _GELU_C
    s = (3.0 * _GELU_A) * x
    s *= x
    s += 1.0
    g *= s
    np.add(t, 1.0, out=s)
    s *= 0.5
    g += s
    return g


def _masked_softmax(scores: np.ndarray, scale: float, amask: np.ndarray) -> np.ndarray:
    """softmax(scores * scale + amask) over the last axis, in place."""
    scores *= scale
    scores += amask
    scores -= scores.max(-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(-1, keepdims=True)
    return scores


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    xhat = x - x.mean(-1, keepdims=True)
    var = (xhat * xhat).mean(-1, keepdims=True)  # x.var(-1), sharing the centering
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv_std
    y = g * xhat
    y += b
    return y, (xhat, inv_std)


def _layer_norm_grad(dy: np.ndarray, g: np.ndarray, cache, dg, db) -> np.ndarray:
    """inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in place;
    the gain and bias gradients are written into ``dg`` and ``db``."""
    xhat, inv_std = cache
    np.sum(dy * xhat, 0, out=dg)
    dy.sum(0, out=db)
    dxhat = dy * g
    t = dxhat * xhat
    m = t.mean(-1, keepdims=True)
    np.multiply(xhat, m, out=t)
    dxhat -= dxhat.mean(-1, keepdims=True)
    dxhat -= t
    dxhat *= inv_std
    return dxhat


def _dropout(x: np.ndarray, p: float, rng: np.random.Generator, shape: tuple[int, ...],
             at: tuple[np.ndarray, np.ndarray]):
    """Inverted dropout on packed rows.  The mask is drawn at ``shape``, the
    batch's full [B, L, H], and keeps the rows at ``at``, so every later
    draw comes from the same place in the stream as if all rows ran."""
    if p <= 0.0:
        return x, None
    keep = rng.random(shape)[at] >= p
    y = x * keep
    y /= 1.0 - p
    return y, keep


def _dropout_grad(dy: np.ndarray, p: float, keep) -> np.ndarray:
    if keep is None:
        return dy
    dx = dy * keep
    dx /= 1.0 - p
    return dx


def _pad(x: np.ndarray, at: tuple[np.ndarray, np.ndarray], B: int, L: int) -> np.ndarray:
    """Packed rows [T, D] at the (sample, position) pairs ``at`` -> [B, L, D],
    zero at every other position."""
    out = np.zeros((B, L, x.shape[1]), x.dtype)
    out[at] = x
    return out


def _to_heads(x: np.ndarray, at: tuple[np.ndarray, np.ndarray], B: int, L: int,
              nh: int) -> np.ndarray:
    """Packed rows [T, H] -> the padded attention layout [B, nh, L, dh]."""
    return _pad(x, at, B, L).reshape(B, L, nh, -1).transpose(0, 2, 1, 3)


def _from_heads(t: np.ndarray, at: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The inverse of ``_to_heads``: [B, nh, L, dh] -> packed rows [T, H]."""
    return t.transpose(0, 2, 1, 3)[at].reshape(len(at[0]), -1)


def _linear_grads(x: np.ndarray, dz: np.ndarray, W: np.ndarray, dW, db) -> np.ndarray:
    """dx for z = x @ W + b with x [T, I], dz [T, O]; the weight and bias
    gradients are written into ``dW`` and ``db``."""
    np.matmul(x.T, dz, out=dW)
    dz.sum(0, out=db)
    return dz @ W.T


def _forward_core(
    model: Model,
    ids: np.ndarray,
    rng: np.random.Generator | None = None,
    need_cache: bool = False,
):
    """Array-level forward pass; ids are [B, L] with L <= max_len.
    Dropout applies only when a generator is given (training).

    Token-wise ops (embedding, layer norms, projections, FFN, dropout) run
    over the packed live rows only: the non-PAD positions, plus each CLS
    row, as [T, H] arrays.  PAD rows would get zero attention as keys
    and the head never reads them, so they carry nothing.  Attention alone
    uses the padded [B, nh, L, L] layout, with the packed rows scattered
    into zero-filled buffers and gathered back.

    The head reads only the CLS position, so the last block computes its
    keys and values from every live row but everything on its query side
    (attention, output projection, FFN, final layer norm) for the CLS rows
    alone, a [B, 1] query grid."""
    cfg = model.config
    P = model.params
    p_drop = cfg.dropout if rng is not None else 0.0
    B, L = ids.shape
    nh, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / math.sqrt(dh)  # a Python float keeps float32 arrays float32
    dtype = model.flat.dtype.type

    live = ids != Vocab.PAD
    live[:, 0] = True  # the head reads the CLS row
    amask = np.where(live[:, None, None, :], dtype(0.0), dtype(-np.inf))
    at = live.nonzero()  # (sample, position) of each packed row, in batch order
    cls_rows = np.flatnonzero(at[1] == 0)  # packed index of each sample's CLS row
    full = (B, L, cfg.hidden_dim)

    tok = ids[at]
    x = P["tok_emb"][tok] + P["pos_emb"][at[1]]
    x, keep_emb = _dropout(x, p_drop, rng, full, at)

    layer_caches = []
    for l in range(cfg.num_layers):
        p = f"layers.{l}."
        # query side: every packed row, or in the last block the CLS rows,
        # which sit at position 0 of both the [B, 1] query grid and [B, L]
        if l == cfg.num_layers - 1:
            rows, q_at, Lq = cls_rows, (np.arange(B), np.zeros(B, np.intp)), 1
        else:
            rows, q_at, Lq = np.s_[:], at, L
        h, ln1_cache = _layer_norm(x, P[p + "ln1_g"], P[p + "ln1_b"])
        qh = _to_heads(h[rows] @ P[p + "Wq"] + P[p + "bq"], q_at, B, Lq, nh)
        kh = _to_heads(h @ P[p + "Wk"] + P[p + "bk"], at, B, L, nh)
        vh = _to_heads(h @ P[p + "Wv"] + P[p + "bv"], at, B, L, nh)
        attn = _masked_softmax(qh @ kh.transpose(0, 1, 3, 2), scale, amask)
        ctx = _from_heads(attn @ vh, q_at)
        ao = ctx @ P[p + "Wo"] + P[p + "bo"]
        ao, keep_attn = _dropout(ao, p_drop, rng, full, q_at)
        x_attn = x[rows] + ao

        h2, ln2_cache = _layer_norm(x_attn, P[p + "ln2_g"], P[p + "ln2_b"])
        z1 = h2 @ P[p + "W1"] + P[p + "b1"]
        a1, gelu_t = _gelu(z1)
        z2 = a1 @ P[p + "W2"] + P[p + "b2"]
        z2, keep_ff = _dropout(z2, p_drop, rng, full, q_at)
        x_out = x_attn + z2

        if need_cache:
            layer_caches.append(
                dict(rows=rows, q_at=q_at, h=h, ln1=ln1_cache, qh=qh, kh=kh, vh=vh,
                     attn=attn, ctx=ctx, keep_attn=keep_attn, h2=h2, ln2=ln2_cache,
                     z1=z1, a1=a1, gelu_t=gelu_t, keep_ff=keep_ff)
            )
        x = x_out

    cls, lnf_cache = _layer_norm(x, P["lnf_g"], P["lnf_b"])
    logits = cls @ P["head_W"] + P["head_b"]

    cache = None
    if need_cache:
        cache = dict(tok=tok, at=at, B=B, L=L, keep_emb=keep_emb, p_drop=p_drop,
                     layers=layer_caches, lnf=lnf_cache, cls=cls, scale=scale)
    return logits, cache


def _backward_core(model: Model, cache: dict, dlogits: np.ndarray, G: dict) -> None:
    """Writes each parameter's gradient once, into its view in ``G`` (the
    ``params`` of a gradient vector), over the packed rows of ``_forward_core``.
    Through the last block only the CLS rows carry a gradient."""
    cfg = model.config
    P = model.params
    at, B, L, p_drop = cache["at"], cache["B"], cache["L"], cache["p_drop"]
    nh = cfg.num_heads

    dcls = _linear_grads(cache["cls"], dlogits, P["head_W"], G["head_W"], G["head_b"])
    dx = _layer_norm_grad(dcls, P["lnf_g"], cache["lnf"], G["lnf_g"], G["lnf_b"])

    for l in range(cfg.num_layers - 1, -1, -1):
        p = f"layers.{l}."
        c = cache["layers"][l]
        rows, q_at = c["rows"], c["q_at"]

        # feed-forward branch
        dz2 = _dropout_grad(dx, p_drop, c["keep_ff"])
        da1 = _linear_grads(c["a1"], dz2, P[p + "W2"], G[p + "W2"], G[p + "b2"])
        dz1 = _gelu_grad(c["z1"], c["gelu_t"])
        dz1 *= da1
        dh2 = _linear_grads(c["h2"], dz1, P[p + "W1"], G[p + "W1"], G[p + "b1"])
        dx_attn = _layer_norm_grad(dh2, P[p + "ln2_g"], c["ln2"], G[p + "ln2_g"], G[p + "ln2_b"])
        dx_attn += dx  # residual

        # attention branch
        dao = _dropout_grad(dx_attn, p_drop, c["keep_attn"])
        dctx = _linear_grads(c["ctx"], dao, P[p + "Wo"], G[p + "Wo"], G[p + "bo"])
        attn = c["attn"]
        dctx_h = _to_heads(dctx, q_at, B, attn.shape[2], nh)
        dvh = attn.transpose(0, 1, 3, 2) @ dctx_h
        # softmax backward; PAD columns carry attn == 0, hence zero grad
        ds = dctx_h @ c["vh"].transpose(0, 1, 3, 2)
        ds -= (ds * attn).sum(-1, keepdims=True)
        ds *= attn
        ds *= cache["scale"]
        dq = _from_heads(ds @ c["kh"], q_at)
        dk, dv = (_from_heads(t, at) for t in (ds.transpose(0, 1, 3, 2) @ c["qh"], dvh))
        h = c["h"]
        dh_q = _linear_grads(h[rows], dq, P[p + "Wq"], G[p + "Wq"], G[p + "bq"])
        dh_sum = _linear_grads(h, dk, P[p + "Wk"], G[p + "Wk"], G[p + "bk"])
        dh_v = _linear_grads(h, dv, P[p + "Wv"], G[p + "Wv"], G[p + "bv"])
        dh_sum[rows] += dh_q
        dh_sum += dh_v
        dx = _layer_norm_grad(dh_sum, P[p + "ln1_g"], c["ln1"], G[p + "ln1_g"], G[p + "ln1_b"])
        dx[rows] += dx_attn

    dx = _dropout_grad(dx, p_drop, cache["keep_emb"])
    V, H = P["tok_emb"].shape
    slots = (cache["tok"][:, None] * H + np.arange(H)).ravel()
    # bincount sums in float64; the assignment rounds it to the view's dtype
    G["tok_emb"][:] = np.bincount(slots, weights=dx.ravel(), minlength=V * H).reshape(V, H)
    G["pos_emb"][L:] = 0.0  # a longer batch before this one wrote these rows
    _pad(dx, at, B, L).sum(0, out=G["pos_emb"][:L])


def forward(model: Model, data: EncodedDataset, batch_size: int = 64) -> np.ndarray:
    """Eval-mode logits [n, 2] in input order.  The samples run in stable
    length order, in batches of ``batch_size`` gathered by index and trimmed
    to their longest sequence, so ``data.ids`` is never copied whole."""
    if data.ids.shape[1] != model.config.max_len:
        raise ValueError(
            f"encoding length {data.ids.shape[1]} != model max_len {model.config.max_len}"
        )
    order = np.argsort((data.ids != Vocab.PAD).sum(1), kind="stable")
    logits = np.empty((len(data), _NUM_CLASSES), model.flat.dtype)
    for start in range(0, len(data), batch_size):
        sel = order[start:start + batch_size]
        logits[sel], _ = _forward_core(model, _trim(data.ids[sel]))
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in forward pass")
    return logits


def _loss_and_grad(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax(logits) against integer labels, and its
    gradient with respect to the logits."""
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("logits and labels differ in batch size")
    B = logits.shape[0]
    shifted = logits - logits.max(-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(-1, keepdims=True))
    logp = shifted - logz
    nll = -logp[np.arange(B), labels]
    dlogits = (np.exp(logp) - np.eye(logits.shape[1], dtype=logits.dtype)[labels]) / B
    return float(nll.mean()), dlogits


def _trim(ids: np.ndarray) -> np.ndarray:
    """The columns up to the batch's longest non-PAD prefix."""
    return ids[:, :max(int((ids != Vocab.PAD).sum(1).max()), 1)]


def grad_check(model: Model, data: EncodedDataset, num_samples: int = 200) -> float:
    """Max relative error between analytic gradients and central differences.

    The loss is taken against ``data.labels``.  Runs on a float64 copy of
    the model, so the caller's parameters and their dtype stay as they are
    and the bound means the same for a float32 model.  Samples
    ``num_samples`` coordinates of the parameter vector, the same ones on
    every call.  The relative-error denominator is floored at 1e-6 so
    finite-difference roundoff on near-zero coordinates does not dominate.
    """
    model = Model(model.config, model.flat.astype(np.float64))
    ids, y = data.ids, data.labels
    logits, cache = _forward_core(model, ids, need_cache=True)
    _, dlogits = _loss_and_grad(logits, y)
    grad = np.empty_like(model.flat)
    G = Model(model.config, grad).params
    _backward_core(model, cache, dlogits, G)
    if not np.isfinite(grad).all():
        name = next(name for name, g in G.items() if not np.isfinite(g).all())
        raise NumericError(f"non-finite gradient in {name}")

    flat, n = model.flat, model.flat.size
    rng = np.random.default_rng(_GRAD_CHECK_SEED)
    picks = rng.choice(n, size=min(num_samples, n), replace=False)

    def loss_at() -> float:
        lg, _ = _forward_core(model, ids)
        value, _ = _loss_and_grad(lg, y)
        return value

    max_rel = 0.0
    for i in np.sort(picks):
        original = flat[i]
        flat[i] = original + _GRAD_CHECK_EPSILON
        up = loss_at()
        flat[i] = original - _GRAD_CHECK_EPSILON
        down = loss_at()
        flat[i] = original
        numeric = (up - down) / (2.0 * _GRAD_CHECK_EPSILON)
        analytic = grad[i]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel


def _adamw_step(model: Model, grad, m, v, decay, t, tcfg: TrainConfig):
    """One AdamW update of ``model.flat``, ``m`` and ``v`` in place; ``decay``
    is the per-element weight-decay factor."""
    bc1 = 1.0 - _ADAM_BETA1**t
    bc2 = 1.0 - _ADAM_BETA2**t
    m *= _ADAM_BETA1
    m += (1.0 - _ADAM_BETA1) * grad
    step = (1.0 - _ADAM_BETA2) * grad
    step *= grad
    v *= _ADAM_BETA2
    v += step
    # lr * mhat / (sqrt(vhat) + eps)
    np.divide(m, bc1, out=step)
    step *= tcfg.learning_rate
    denom = v / bc2
    np.sqrt(denom, out=denom)
    denom += _ADAM_EPS
    step /= denom
    model.flat *= decay
    model.flat -= step
    if not np.isfinite(model.flat).all():
        name = next(name for name, p in model.params.items() if not np.isfinite(p).all())
        raise NumericError(f"non-finite values in {name} after optimizer step {t}")


def _decide(logits: np.ndarray) -> np.ndarray:
    """Vulnerable iff logit 1 >= logit 0, i.e. p(class 1) >= 0.5; a tie is vulnerable."""
    return logits[:, 1] >= logits[:, 0]


def _eval_loss_acc(model: Model, data: EncodedDataset, batch_size: int) -> tuple[float, float]:
    logits = forward(model, data, batch_size)
    nll, _ = _loss_and_grad(logits, data.labels)
    return nll, int((_decide(logits) == data.labels).sum()) / len(data)


def train(
    model: Model,
    train_data: EncodedDataset,
    val_data: EncodedDataset,
    tcfg: TrainConfig,
) -> tuple[Model, TrainHistory]:
    """AdamW training loop with early stopping on validation loss.

    Casts the parameters to float32 on entry, so training and everything
    after it run in single precision.  Returns the model holding the
    best-validation-loss weights and the per-epoch history.  Fully
    deterministic for a fixed TrainConfig.seed.
    """
    if len(train_data) == 0 or len(val_data) == 0:
        raise DataError("training and validation sets must be non-empty")
    model = Model(model.config, model.flat.astype(np.float32, copy=False))
    decay = np.ones_like(model.flat)  # decoupled weight decay, on matrices only
    for p in Model(model.config, decay).params.values():
        p[:] = 1.0 - tcfg.learning_rate * tcfg.weight_decay if p.ndim == 2 else 1.0
    dropout_rng = np.random.default_rng([tcfg.seed, 0xD0])
    m, v, grad = np.zeros_like(model.flat), np.zeros_like(model.flat), np.empty_like(model.flat)
    G = Model(model.config, grad).params  # backward writes each gradient into its view
    history = TrainHistory()
    best_loss = np.inf
    best = model.flat.copy()
    epochs_since_best = 0
    step = 0

    for epoch in range(1, tcfg.epochs + 1):
        order = np.random.default_rng([tcfg.seed, epoch]).permutation(len(train_data))
        epoch_nll = 0.0
        for start in range(0, len(order), tcfg.batch_size):
            sel = order[start:start + tcfg.batch_size]
            ids = _trim(train_data.ids[sel])
            y = train_data.labels[sel]
            logits, cache = _forward_core(model, ids, dropout_rng, need_cache=True)
            nll, dlogits = _loss_and_grad(logits, y)
            if not np.isfinite(nll):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, step {step}"
                )
            _backward_core(model, cache, dlogits, G)
            step += 1
            _adamw_step(model, grad, m, v, decay, step, tcfg)
            epoch_nll += nll * len(sel)

        val_loss, val_acc = _eval_loss_acc(model, val_data, tcfg.batch_size)
        history.train_loss.append(epoch_nll / len(train_data))
        history.val_loss.append(val_loss)
        history.val_accuracy.append(val_acc)
        history.stopped_epoch = epoch

        if val_loss < best_loss:
            best_loss = val_loss
            best[:] = model.flat
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= tcfg.early_stop_patience:
                break

    model.flat[:] = best
    return model, history


def predict(model: Model, data: EncodedDataset) -> np.ndarray:
    """0/1 labels in input order, the decision on ``forward``'s logits:
    vulnerable iff logit 1 >= logit 0 (p(class 1) >= 0.5)."""
    return _decide(forward(model, data)).astype(np.int64)


def save_checkpoint(model: Model, path: str | Path, vocab: Vocab) -> Path:
    """Single-file binary checkpoint: everything ``evaluate`` needs to read
    a corpus the way the model was trained, namely the model config and the
    vocabulary, plus the parameter vector ``Model.flat``."""
    path = Path(path)
    if path.suffix != ".npz":
        path = Path(str(path) + ".npz")
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab": list(vocab.tokens),
    }
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             flat=model.flat)
    return path


def load_checkpoint(path: str | Path) -> tuple[Model, Vocab]:
    """The model and vocabulary ``save_checkpoint`` stored.  A file that is
    not such a checkpoint (a compressed member, whose read size no header
    bounds; an older version; a stored vocabulary that is not a list of
    distinct strings or does not fit the config's ``vocab_size``; a ``flat``
    other than one vector of the stored config's parameter count of numbers)
    is a DataError naming the file.  The parameters come back in float32,
    the precision ``train`` runs in, whatever number type the archive stores."""
    try:
        with np.load(path) as blob:
            if any(member.compress_type != ZIP_STORED for member in blob.zip.infolist()):
                raise DataError(f"{path}: not a checkpoint (it holds a compressed member)")
            meta = json.loads(bytes(blob["__meta__"]).decode())
            if meta.get("version") != CHECKPOINT_VERSION:
                raise DataError(
                    f"{path}: unsupported checkpoint version {meta.get('version')} (this "
                    f"slicevuln reads version {CHECKPOINT_VERSION}); retrain the model with "
                    "`slicevuln train`"
                )
            try:
                cfg = ModelConfig(**meta["config"])
            except ValueError as e:  # ModelConfig's own text, kept whole (it names every size)
                raise DataError(f"{path}: not a checkpoint (ValueError: {e})") from e
            tokens, flat = meta["vocab"], blob["flat"]
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError, MemoryError,
            BadZipFile) as e:
        # Python's and numpy's text may quote an unknown config key or an
        # array header whole; a header may claim an array no memory holds
        raise DataError(f"{path}: not a checkpoint ({type(e).__name__}: {clip(str(e))})") from e
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise DataError(f"{path}: the stored vocabulary is not a list of strings")
    room = cfg.vocab_size - len(Vocab.RESERVED)
    if len(tokens) > room:
        raise DataError(f"{path}: the stored vocabulary holds {len(tokens)} tokens; "
                        f"vocab_size {cfg.vocab_size} leaves room for {room}")
    try:
        vocab = Vocab(tokens)
    except DataError as e:
        raise DataError(f"{path}: the stored {e}") from e
    if flat.dtype.kind not in "fiu" or flat.shape != (_size(cfg),):
        raise DataError(f"{path}: flat holds {clip(f'{flat.dtype} {flat.shape}')}, not the "
                        f"{_size(cfg)} numbers the stored config gives")
    return Model(cfg, flat.astype(np.float32, copy=False)), vocab
