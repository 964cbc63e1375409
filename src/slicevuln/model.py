"""Compact transformer encoder classifier, implemented from scratch on numpy.

Architecture: learned token + position embeddings, pre-layer-norm residual
blocks (masked multi-head self-attention, then a GELU feed-forward), a
final layer norm, and a two-way classification head reading the CLS
position.  Everything runs in float64 with hand-written backprop so the
gradients can be verified against central finite differences.

Attention masking is exact: masked key columns get -inf before the
softmax, so PAD positions receive zero attention weight and the logits are
bitwise independent of token ids at masked positions.

Training uses decoupled-weight-decay Adam (weight decay applied directly
to matrix-shaped parameters, not through the gradient), shuffling keyed by
(seed, epoch), and early stopping on validation loss with restoration of
the best weights.  Dropout draws from a generator keyed by the training
seed.  Validation and ``predict`` both take their logits from ``forward``,
the one eval-mode pass, which refuses non-finite logits.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError
from .tokenizer import EncodedDataset

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_LN_EPS = 1e-5
_GELU_A = 0.044715
_GELU_C = float(np.sqrt(2.0 / np.pi))
_THRESHOLD = 0.5  # vulnerable iff softmax probability of class 1 >= this
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 2
    hidden_dim: int = 64
    num_heads: int = 4
    ff_dim: int = 256
    max_len: int = 512
    vocab_size: int = 4096
    dropout: float = 0.1
    num_classes: int = 2

    def __post_init__(self):
        if min(self.num_layers, self.hidden_dim, self.num_heads, self.ff_dim,
               self.max_len, self.vocab_size) < 1:
            raise ValueError("all model dimensions must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.num_classes != 2:
            raise ValueError("binary classifier: num_classes is fixed at 2")

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


class Model:
    """Configuration plus a flat name -> float64 ndarray parameter map."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params.values())

    def copy_params(self) -> dict[str, np.ndarray]:
        return {name: p.copy() for name, p in self.params.items()}


def init(cfg: ModelConfig, seed: int) -> Model:
    """Deterministic initialization: N(0, 0.02) weights, zero biases, unit gains."""
    rng = np.random.default_rng(seed)
    H, F = cfg.hidden_dim, cfg.ff_dim

    def w(*shape):
        return rng.normal(0.0, 0.02, shape)

    params: dict[str, np.ndarray] = {
        "tok_emb": w(cfg.vocab_size, H),
        "pos_emb": w(cfg.max_len, H),
    }
    for l in range(cfg.num_layers):
        p = f"layers.{l}."
        params[p + "ln1_g"] = np.ones(H)
        params[p + "ln1_b"] = np.zeros(H)
        for name in ("Wq", "Wk", "Wv", "Wo"):
            params[p + name] = w(H, H)
        for name in ("bq", "bk", "bv", "bo"):
            params[p + name] = np.zeros(H)
        params[p + "ln2_g"] = np.ones(H)
        params[p + "ln2_b"] = np.zeros(H)
        params[p + "W1"] = w(H, F)
        params[p + "b1"] = np.zeros(F)
        params[p + "W2"] = w(F, H)
        params[p + "b2"] = np.zeros(H)
    params["lnf_g"] = np.ones(H)
    params["lnf_b"] = np.zeros(H)
    params["head_W"] = w(H, cfg.num_classes)
    params["head_b"] = np.zeros(cfg.num_classes)
    return Model(cfg, params)


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-form GELU; returns (value, tanh term) so backward can reuse it."""
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv_std
    return g * xhat + b, (xhat, inv_std)


def _layer_norm_grad(dy: np.ndarray, g: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv_std = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv_std * (
        dxhat
        - dxhat.mean(-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    )
    return dx, dg, db


def _dropout(x: np.ndarray, p: float, rng: np.random.Generator):
    if p <= 0.0:
        return x, None
    keep = rng.random(x.shape) >= p
    return x * keep / (1.0 - p), keep


def _dropout_grad(dy: np.ndarray, p: float, keep) -> np.ndarray:
    if keep is None:
        return dy
    return dy * keep / (1.0 - p)


def _split_heads(x: np.ndarray, nh: int, dh: int) -> np.ndarray:
    B, L, _ = x.shape
    return x.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, nh, L, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, L, nh * dh)


def _linear_grads(x: np.ndarray, dz: np.ndarray, W: np.ndarray):
    """Grads for z = x @ W + b with x [B,L,I], dz [B,L,O]."""
    I, O = W.shape
    dW = x.reshape(-1, I).T @ dz.reshape(-1, O)
    db = dz.sum((0, 1))
    dx = dz @ W.T
    return dx, dW, db


def _forward_core(
    model: Model,
    ids: np.ndarray,
    mask: np.ndarray,
    rng: np.random.Generator | None = None,
    need_cache: bool = False,
):
    """Array-level forward pass; ids/mask are [B, L] with L <= max_len.
    Dropout applies only when a generator is given (training)."""
    cfg = model.config
    P = model.params
    p_drop = cfg.dropout if rng is not None else 0.0
    B, L = ids.shape
    nh, dh = cfg.num_heads, cfg.head_dim
    scale = 1.0 / np.sqrt(dh)

    amask = np.where(mask[:, None, None, :] == 1, 0.0, -np.inf)

    x = P["tok_emb"][ids] + P["pos_emb"][:L][None, :, :]
    x, keep_emb = _dropout(x, p_drop, rng)

    layer_caches = []
    for l in range(cfg.num_layers):
        p = f"layers.{l}."
        h, ln1_cache = _layer_norm(x, P[p + "ln1_g"], P[p + "ln1_b"])
        q = h @ P[p + "Wq"] + P[p + "bq"]
        k = h @ P[p + "Wk"] + P[p + "bk"]
        v = h @ P[p + "Wv"] + P[p + "bv"]
        qh, kh, vh = (_split_heads(t, nh, dh) for t in (q, k, v))
        scores = qh @ kh.transpose(0, 1, 3, 2) * scale + amask
        scores_max = scores.max(-1, keepdims=True)
        expd = np.exp(scores - scores_max)
        attn = expd / expd.sum(-1, keepdims=True)
        ctx = _merge_heads(attn @ vh)
        ao = ctx @ P[p + "Wo"] + P[p + "bo"]
        ao, keep_attn = _dropout(ao, p_drop, rng)
        x_attn = x + ao

        h2, ln2_cache = _layer_norm(x_attn, P[p + "ln2_g"], P[p + "ln2_b"])
        z1 = h2 @ P[p + "W1"] + P[p + "b1"]
        a1, gelu_t = _gelu(z1)
        z2 = a1 @ P[p + "W2"] + P[p + "b2"]
        z2, keep_ff = _dropout(z2, p_drop, rng)
        x_out = x_attn + z2

        if need_cache:
            layer_caches.append(
                dict(h=h, ln1=ln1_cache, qh=qh, kh=kh, vh=vh, attn=attn,
                     ctx=ctx, keep_attn=keep_attn, h2=h2, ln2=ln2_cache,
                     z1=z1, a1=a1, gelu_t=gelu_t, keep_ff=keep_ff)
            )
        x = x_out

    hf, lnf_cache = _layer_norm(x, P["lnf_g"], P["lnf_b"])
    cls = hf[:, 0, :]
    logits = cls @ P["head_W"] + P["head_b"]

    cache = None
    if need_cache:
        cache = dict(ids=ids, mask=mask, L=L, keep_emb=keep_emb, p_drop=p_drop,
                     layers=layer_caches, lnf=lnf_cache, cls=cls, scale=scale)
    return logits, cache


def _backward_core(model: Model, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    cfg = model.config
    P = model.params
    grads = {name: np.zeros_like(p) for name, p in P.items()}
    ids, L, p_drop = cache["ids"], cache["L"], cache["p_drop"]
    nh, dh = cfg.num_heads, cfg.head_dim
    B = ids.shape[0]

    grads["head_W"] = cache["cls"].T @ dlogits
    grads["head_b"] = dlogits.sum(0)
    dcls = dlogits @ P["head_W"].T
    dhf = np.zeros((B, L, cfg.hidden_dim))
    dhf[:, 0, :] = dcls
    dx, grads["lnf_g"], grads["lnf_b"] = _layer_norm_grad(dhf, P["lnf_g"], cache["lnf"])

    for l in range(cfg.num_layers - 1, -1, -1):
        p = f"layers.{l}."
        c = cache["layers"][l]

        # feed-forward branch
        dz2 = _dropout_grad(dx, p_drop, c["keep_ff"])
        da1, dW2, db2 = _linear_grads(c["a1"], dz2, P[p + "W2"])
        dz1 = da1 * _gelu_grad(c["z1"], c["gelu_t"])
        dh2, dW1, db1 = _linear_grads(c["h2"], dz1, P[p + "W1"])
        grads[p + "W2"], grads[p + "b2"] = dW2, db2
        grads[p + "W1"], grads[p + "b1"] = dW1, db1
        dx_attn, dg2, db2n = _layer_norm_grad(dh2, P[p + "ln2_g"], c["ln2"])
        grads[p + "ln2_g"], grads[p + "ln2_b"] = dg2, db2n
        dx_attn = dx_attn + dx  # residual

        # attention branch
        dao = _dropout_grad(dx_attn, p_drop, c["keep_attn"])
        dctx, dWo, dbo = _linear_grads(c["ctx"], dao, P[p + "Wo"])
        grads[p + "Wo"], grads[p + "bo"] = dWo, dbo
        dctx_h = _split_heads(dctx, nh, dh)
        dattn = dctx_h @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["attn"].transpose(0, 1, 3, 2) @ dctx_h
        # softmax backward; masked columns carry attn == 0, hence zero grad
        ds = c["attn"] * (dattn - (dattn * c["attn"]).sum(-1, keepdims=True))
        ds = ds * cache["scale"]
        dqh = ds @ c["kh"]
        dkh = ds.transpose(0, 1, 3, 2) @ c["qh"]
        dq, dk, dv = (_merge_heads(t) for t in (dqh, dkh, dvh))
        dh_sum = np.zeros_like(dx_attn)
        for name, dt in (("Wq", dq), ("Wk", dk), ("Wv", dv)):
            dh_part, dW, db = _linear_grads(c["h"], dt, P[p + name])
            grads[p + name] = dW
            grads[p + "b" + name[-1].lower()] = db
            dh_sum = dh_sum + dh_part
        dx_ln1, dg1, db1n = _layer_norm_grad(dh_sum, P[p + "ln1_g"], c["ln1"])
        grads[p + "ln1_g"], grads[p + "ln1_b"] = dg1, db1n
        dx = dx_attn + dx_ln1

    dx = _dropout_grad(dx, p_drop, cache["keep_emb"])
    np.add.at(grads["tok_emb"], ids, dx)
    grads["pos_emb"][:L] = dx.sum(0)
    return grads


def forward(model: Model, data: EncodedDataset, batch_size: int = 64) -> np.ndarray:
    """Eval-mode logits [n, 2], computed in batches of ``batch_size`` that
    are trimmed to their longest sequence."""
    if data.ids.shape[1] != model.config.max_len:
        raise ValueError(
            f"encoding length {data.ids.shape[1]} != model max_len {model.config.max_len}"
        )
    logits = np.empty((len(data), model.config.num_classes))
    for start in range(0, len(data), batch_size):
        ids, mask = _trim(data.ids[start:start + batch_size],
                          data.attention_mask[start:start + batch_size])
        logits[start:start + batch_size], _ = _forward_core(model, ids, mask)
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
    dlogits = (np.exp(logp) - np.eye(logits.shape[1])[labels]) / B
    return float(nll.mean()), dlogits


def _trim(ids: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    longest = max(int(mask.sum(1).max()), 1)
    return ids[:, :longest], mask[:, :longest]


def grad_check(
    model: Model,
    data: EncodedDataset,
    labels: Sequence[int],
    epsilon: float = 1e-5,
    num_samples: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences.

    Samples ``num_samples`` parameter coordinates across every tensor.  The
    relative-error denominator is floored at 1e-6 so finite-difference
    roundoff on near-zero coordinates does not dominate.
    """
    ids, mask = data.ids, data.attention_mask
    y = np.asarray(labels, dtype=np.int64)
    logits, cache = _forward_core(model, ids, mask, need_cache=True)
    _, dlogits = _loss_and_grad(logits, y)
    grads = _backward_core(model, cache, dlogits)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")

    names = sorted(model.params)
    sizes = np.array([model.params[n].size for n in names])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(num_samples, total), replace=False)

    def loss_at() -> float:
        lg, _ = _forward_core(model, ids, mask)
        value, _ = _loss_and_grad(lg, y)
        return value

    max_rel = 0.0
    for flat in sorted(int(i) for i in picks):
        t = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[t]
        idx = np.unravel_index(flat - offsets[t], model.params[name].shape)
        original = model.params[name][idx]
        model.params[name][idx] = original + epsilon
        up = loss_at()
        model.params[name][idx] = original - epsilon
        down = loss_at()
        model.params[name][idx] = original
        numeric = (up - down) / (2.0 * epsilon)
        analytic = grads[name][idx]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel


def _adamw_step(params, grads, m, v, t, tcfg: TrainConfig):
    lr, wd = tcfg.learning_rate, tcfg.weight_decay
    bc1 = 1.0 - _ADAM_BETA1**t
    bc2 = 1.0 - _ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        m[name] = _ADAM_BETA1 * m[name] + (1.0 - _ADAM_BETA1) * g
        v[name] = _ADAM_BETA2 * v[name] + (1.0 - _ADAM_BETA2) * g * g
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        if wd > 0 and p.ndim >= 2:  # decay decoupled; biases and LN params exempt
            p *= 1.0 - lr * wd
        p -= lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)
        if not np.all(np.isfinite(p)):
            raise NumericError(f"non-finite values in {name} after optimizer step {t}")


def _eval_loss_acc(model: Model, data: EncodedDataset, batch_size: int) -> tuple[float, float]:
    logits = forward(model, data, batch_size)
    total_nll = 0.0
    for start in range(0, len(data), batch_size):
        y = data.labels[start:start + batch_size]
        nll, _ = _loss_and_grad(logits[start:start + batch_size], y)
        total_nll += nll * len(y)
    correct = int((logits.argmax(-1) == data.labels).sum())
    return total_nll / len(data), correct / len(data)


def train(
    model: Model,
    train_data: EncodedDataset,
    val_data: EncodedDataset,
    tcfg: TrainConfig,
) -> tuple[Model, TrainHistory]:
    """AdamW training loop with early stopping on validation loss.

    Returns the model holding the best-validation-loss weights and the
    per-epoch history.  Fully deterministic for a fixed TrainConfig.seed.
    """
    if len(train_data) == 0 or len(val_data) == 0:
        raise DataError("training and validation sets must be non-empty")
    dropout_rng = np.random.default_rng([tcfg.seed, 0xD0])
    m = {n: np.zeros_like(p) for n, p in model.params.items()}
    v = {n: np.zeros_like(p) for n, p in model.params.items()}
    history = TrainHistory()
    best_loss = np.inf
    best_params = model.copy_params()
    epochs_since_best = 0
    step = 0

    for epoch in range(1, tcfg.epochs + 1):
        order = np.random.default_rng([tcfg.seed, epoch]).permutation(len(train_data))
        epoch_nll = 0.0
        for start in range(0, len(order), tcfg.batch_size):
            sel = order[start:start + tcfg.batch_size]
            ids, mask = _trim(train_data.ids[sel], train_data.attention_mask[sel])
            y = train_data.labels[sel]
            logits, cache = _forward_core(model, ids, mask, dropout_rng, need_cache=True)
            nll, dlogits = _loss_and_grad(logits, y)
            if not np.isfinite(nll):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, step {step}"
                )
            grads = _backward_core(model, cache, dlogits)
            step += 1
            _adamw_step(model.params, grads, m, v, step, tcfg)
            epoch_nll += nll * len(sel)

        val_loss, val_acc = _eval_loss_acc(model, val_data, tcfg.batch_size)
        history.train_loss.append(epoch_nll / len(train_data))
        history.val_loss.append(val_loss)
        history.val_accuracy.append(val_acc)
        history.stopped_epoch = epoch

        if val_loss < best_loss:
            best_loss = val_loss
            best_params = model.copy_params()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= tcfg.early_stop_patience:
                break

    model.params = best_params
    return model, history


def predict(model: Model, data: EncodedDataset) -> np.ndarray:
    """0/1 labels; vulnerable iff softmax probability of class 1 >= 0.5."""
    logits = forward(model, data)
    e = np.exp(logits - logits.max(-1, keepdims=True))
    return (e[:, 1] / e.sum(-1) >= _THRESHOLD).astype(np.int64)


def save_checkpoint(model: Model, path: str | Path, vocab_hash: str) -> Path:
    """Single-file binary checkpoint: config, vocab hash, and parameters."""
    path = Path(path)
    if path.suffix != ".npz":
        path = Path(str(path) + ".npz")
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab_hash": vocab_hash,
        "shapes": {name: list(p.shape) for name, p in model.params.items()},
    }
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **model.params)
    return path


def load_checkpoint(path: str | Path, expected_vocab_hash: str) -> tuple[Model, str]:
    """Load a checkpoint written by ``save_checkpoint``.  A file that is not
    one, a version or vocabulary-hash mismatch, and parameters whose names or
    shapes differ from what ``init`` gives for the stored config are each a
    DataError naming the file."""
    try:
        with np.load(path) as blob:
            meta = json.loads(bytes(blob["__meta__"]).decode())
            arrays = {name: blob[name] for name in blob.files if name != "__meta__"}
        if meta.get("version") != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {meta.get('version')}")
        if meta["vocab_hash"] != expected_vocab_hash:
            raise DataError(
                f"{path}: vocabulary hash mismatch: the checkpoint was trained with a "
                "different vocabulary"
            )
        cfg = ModelConfig(**meta["config"])
    except (AttributeError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as e:
        raise DataError(f"{path}: not a checkpoint ({type(e).__name__}: {e})") from e
    expected = {name: p.shape for name, p in init(cfg, 0).params.items()}
    if arrays.keys() != expected.keys():
        raise DataError(f"{path}: parameters missing {sorted(expected.keys() - arrays.keys())}, "
                        f"unexpected {sorted(arrays.keys() - expected.keys())}")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise DataError(f"{path}: parameter {name} has shape {arrays[name].shape}, "
                            f"the stored config gives {shape}")
    return Model(cfg, {name: arrays[name].astype(np.float64) for name in expected}), meta["vocab_hash"]
