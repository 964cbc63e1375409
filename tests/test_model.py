import dataclasses
import json
import math
import re

import numpy as np
import pytest

from slicevuln import (
    ModelConfig,
    NumericError,
    TrainConfig,
    forward,
    grad_check,
    init,
    predict,
    train,
)
from slicevuln.model import _loss_and_grad, load_checkpoint, save_checkpoint
from slicevuln.tokenizer import EncodedDataset, Encoding

from conftest import random_batch, random_dataset


def desk_cfg(**overrides):
    base = dict(num_layers=2, hidden_dim=64, num_heads=4, ff_dim=256,
                max_len=32, vocab_size=128, dropout=0.1)
    base.update(overrides)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=10, num_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ValueError):
        ModelConfig(num_classes=3)
    assert ModelConfig(hidden_dim=64, num_heads=4).head_dim == 16


def test_init_deterministic(tiny_cfg):
    a = init(tiny_cfg, seed=5)
    b = init(tiny_cfg, seed=5)
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = init(tiny_cfg, seed=6)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_parameter_count_closed_form():
    cfg = desk_cfg()
    net = init(cfg, seed=0)
    H, F, L = cfg.hidden_dim, cfg.ff_dim, cfg.num_layers
    per_layer = 2 * H + 4 * H * H + 4 * H + 2 * H + H * F + F + F * H + H
    want = (cfg.vocab_size * H) + (cfg.max_len * H) + L * per_layer + 2 * H + H * 2 + 2
    assert net.num_parameters() == want


def test_forward_shape_and_softmax(tiny_cfg):
    net = init(tiny_cfg, seed=1)
    logits = forward(net, random_dataset(tiny_cfg, 1, seed=2))
    assert logits.shape == (1, 2)
    p = np.exp(logits - logits.max(-1, keepdims=True))
    p = p / p.sum(-1, keepdims=True)
    assert abs(p.sum() - 1.0) < 1e-9


def test_forward_rejects_wrong_length(tiny_cfg):
    net = init(tiny_cfg, seed=1)
    enc = Encoding(ids=np.array([2, 3], dtype=np.int64),
                   attention_mask=np.array([1, 1], dtype=np.int64))
    data = EncodedDataset.from_encodings([enc], [0])
    with pytest.raises(ValueError, match="max_len"):
        forward(net, data)
    with pytest.raises(ValueError, match="max_len"):
        predict(net, data)


def test_pad_positions_do_not_affect_logits(tiny_cfg):
    net = init(tiny_cfg, seed=3)
    encodings, labels = random_batch(tiny_cfg, 4, seed=4)
    base = forward(net, EncodedDataset.from_encodings(encodings, labels))
    mutated = []
    for e in encodings:
        ids = e.ids.copy()
        pad_positions = np.where(e.attention_mask == 0)[0]
        if len(pad_positions):
            ids[pad_positions] = (ids[pad_positions] + 7) % tiny_cfg.vocab_size
        mutated.append(Encoding(ids=ids, attention_mask=e.attention_mask))
    changed = forward(net, EncodedDataset.from_encodings(mutated, labels))
    assert np.abs(base - changed).max() < 1e-9


def loss(logits, labels):
    return _loss_and_grad(logits, np.asarray(labels))[0]


def test_loss_uniform_logits_is_ln2():
    logits = np.zeros((5, 2))
    assert loss(logits, [0, 1, 0, 1, 1]) == pytest.approx(math.log(2), abs=1e-12)


def test_loss_extreme_correct_logits_near_zero():
    logits = np.array([[30.0, -30.0], [-30.0, 30.0]])
    assert loss(logits, [0, 1]) < 1e-12


def test_loss_matches_per_sample_oracle():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(4, 2))
    labels = rng.integers(0, 2, size=4)
    per_sample = []
    for row, y in zip(logits, labels):
        z = math.exp(row[0]) + math.exp(row[1])
        per_sample.append(-math.log(math.exp(row[y]) / z))
    assert loss(logits, labels) == pytest.approx(sum(per_sample) / 4, abs=1e-12)


def test_grad_check_tiny_model(tiny_cfg):
    net = init(tiny_cfg, seed=7)
    data = random_dataset(tiny_cfg, 4, seed=3)
    err = grad_check(net, data, data.labels, epsilon=1e-5, num_samples=250)
    assert err < 1e-4


def test_grad_check_deterministic(tiny_cfg):
    net = init(tiny_cfg, seed=7)
    data = random_dataset(tiny_cfg, 4, seed=3)
    a = grad_check(net, data, data.labels, num_samples=60, seed=1)
    b = grad_check(net, data, data.labels, num_samples=60, seed=1)
    assert a == b


def test_unused_embedding_rows_get_zero_gradient(tiny_cfg):
    from slicevuln.model import _backward_core, _forward_core, _loss_and_grad

    net = init(tiny_cfg, seed=7)
    data = random_dataset(tiny_cfg, 4, seed=3)
    logits, cache = _forward_core(net, data.ids, data.attention_mask, need_cache=True)
    _, dlogits = _loss_and_grad(logits, data.labels)
    grads = _backward_core(net, cache, dlogits)
    used = set(np.unique(data.ids))
    unused = [i for i in range(tiny_cfg.vocab_size) if i not in used]
    assert unused, "test premise: some vocabulary rows are untouched"
    assert np.all(grads["tok_emb"][unused] == 0.0)


def make_separable_dataset(cfg, n=64):
    """Class 1 sequences contain token 5, class 0 contain token 6."""
    rng = np.random.default_rng(0)
    encodings, labels = [], []
    for i in range(n):
        label = i % 2
        length = int(rng.integers(4, cfg.max_len))
        ids = np.zeros(cfg.max_len, dtype=np.int64)
        ids[0] = 2
        filler = rng.integers(7, cfg.vocab_size, size=length - 1)
        ids[1:length] = filler
        ids[1 + int(rng.integers(0, length - 1))] = 5 if label else 6
        mask = (np.arange(cfg.max_len) < length).astype(np.int64)
        encodings.append(Encoding(ids=ids, attention_mask=mask))
        labels.append(label)
    return EncodedDataset.from_encodings(encodings, labels)


def test_overfit_separable_set():
    # converges well inside the 200-epoch budget; 60 keeps the suite quick
    cfg = desk_cfg()
    data = make_separable_dataset(cfg)
    tcfg = TrainConfig(epochs=60, early_stop_patience=60)
    net = init(cfg, seed=42)
    net, history = train(net, data, data, tcfg)
    preds = predict(net, data)
    assert (preds == data.labels).mean() == 1.0
    assert history.train_loss[-1] < 0.05 * history.train_loss[0]
    assert history.stopped_epoch <= 200


def test_train_deterministic_history():
    cfg = desk_cfg()
    data = make_separable_dataset(cfg, n=32)
    tcfg = TrainConfig(epochs=4, early_stop_patience=4, seed=42)
    _, h1 = train(init(cfg, seed=42), data, data, tcfg)
    _, h2 = train(init(cfg, seed=42), data, data, tcfg)
    assert h1.train_loss == h2.train_loss
    assert h1.val_loss == h2.val_loss
    assert h1.val_accuracy == h2.val_accuracy
    assert h1.stopped_epoch == h2.stopped_epoch


def test_early_stop_patience_one(tiny_cfg, monkeypatch):
    # force strictly worsening validation loss via a tiny lr and rigged eval
    import slicevuln.model as m

    losses = iter([1.0, 2.0, 3.0, 4.0])

    def fake_eval(model, data, batch_size):
        return next(losses), 0.5

    monkeypatch.setattr(m, "_eval_loss_acc", fake_eval)
    data = random_dataset(tiny_cfg, 8, seed=0)
    tcfg = TrainConfig(epochs=10, early_stop_patience=1)
    _, history = m.train(init(tiny_cfg, seed=0), data, data, tcfg)
    assert history.stopped_epoch == 2
    assert len(history.val_loss) == 2


def test_train_restores_best_weights(tiny_cfg):
    data = random_dataset(tiny_cfg, 16, seed=5)
    tcfg = TrainConfig(epochs=6, early_stop_patience=6, learning_rate=0.05)
    net, history = train(init(tiny_cfg, seed=0), data, data, tcfg)
    from slicevuln.model import _eval_loss_acc

    final_loss, _ = _eval_loss_acc(net, data, tcfg.batch_size)
    assert final_loss == pytest.approx(min(history.val_loss), abs=1e-12)


def test_predict_threshold_tie_is_vulnerable(tiny_cfg):
    # logits (0,0) gives probability exactly 0.5 -> class 1 by the >= rule
    net = init(tiny_cfg, seed=0)
    for name in ("head_W", "head_b"):
        net.params[name][:] = 0.0
    data = random_dataset(tiny_cfg, 3, seed=1)
    assert predict(net, data).tolist() == [1, 1, 1]


def test_predict_extreme_logits_class0(tiny_cfg):
    net = init(tiny_cfg, seed=0)
    net.params["head_W"][:] = 0.0
    net.params["head_b"][:] = np.array([50.0, -50.0])
    data = random_dataset(tiny_cfg, 3, seed=1)
    assert predict(net, data).tolist() == [0, 0, 0]


def test_predict_invariant_to_batch_partitioning(tiny_cfg):
    net = init(tiny_cfg, seed=9)
    data = random_dataset(tiny_cfg, 17, seed=2)
    one = forward(net, data, batch_size=1)
    assert np.allclose(one, forward(net, data, batch_size=8), rtol=0, atol=1e-12)
    assert np.array_equal(predict(net, data), (one[:, 1] >= one[:, 0]).astype(np.int64))


def test_prediction_permutation_consistency(tiny_cfg):
    net = init(tiny_cfg, seed=9)
    encodings, labels = random_batch(tiny_cfg, 10, seed=3)
    base = predict(net, EncodedDataset.from_encodings(encodings, labels))
    perm = np.random.default_rng(0).permutation(10)
    shuffled = predict(net, EncodedDataset.from_encodings(
        [encodings[i] for i in perm], labels[perm]))
    assert np.array_equal(shuffled, base[perm])


def test_predict_rejects_nonfinite_logits(tiny_cfg):
    # NaN compares False against the threshold, which would read as label 0
    net = init(tiny_cfg, seed=0)
    net.params["head_b"][:] = np.nan
    with pytest.raises(NumericError, match="non-finite logits"):
        predict(net, random_dataset(tiny_cfg, 2, seed=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ValueError):
        TrainConfig(early_stop_patience=0)
    with pytest.raises(ValueError):
        TrainConfig(weight_decay=-0.1)


def test_train_aborts_on_nonfinite_loss(tiny_cfg):
    data = random_dataset(tiny_cfg, 8, seed=5)
    net = init(tiny_cfg, seed=0)
    net.params["tok_emb"][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        train(net, data, data, TrainConfig(epochs=1))


def test_optimizer_step_rejects_nonfinite_update(tiny_cfg):
    from slicevuln.model import _adamw_step

    net = init(tiny_cfg, seed=0)
    grads = {n: np.zeros_like(p) for n, p in net.params.items()}
    grads["head_W"][:] = np.inf
    m = {n: np.zeros_like(p) for n, p in net.params.items()}
    v = {n: np.zeros_like(p) for n, p in net.params.items()}
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="head_W"):
        _adamw_step(net.params, grads, m, v, 1, TrainConfig())


def test_checkpoint_round_trip(tmp_path, tiny_cfg):
    net = init(tiny_cfg, seed=4)
    path = save_checkpoint(net, tmp_path / "model.npz", vocab_hash="abc123")
    back, vocab_hash = load_checkpoint(path, expected_vocab_hash="abc123")
    assert vocab_hash == "abc123"
    assert back.config == tiny_cfg
    for name in net.params:
        assert np.array_equal(back.params[name], net.params[name])
    data = random_dataset(tiny_cfg, 4, seed=6)
    assert np.array_equal(forward(net, data), forward(back, data))


def test_checkpoint_vocab_hash_mismatch(tmp_path, tiny_cfg):
    from slicevuln import DataError

    net = init(tiny_cfg, seed=4)
    path = save_checkpoint(net, tmp_path / "model.npz", vocab_hash="abc123")
    with pytest.raises(DataError, match="vocab"):
        load_checkpoint(path, expected_vocab_hash="zzz")


def _rewrite_checkpoint(path, drop=(), **config):
    """Rewrite a saved checkpoint without the ``drop`` arrays and with
    ``config`` merged into its stored model config."""
    with np.load(path) as blob:
        arrays = {name: blob[name] for name in blob.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    meta["config"].update(config)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **{name: a for name, a in arrays.items() if name not in drop})


def test_checkpoint_that_is_not_an_archive_is_data_error(tmp_path):
    from slicevuln import DataError

    path = tmp_path / "model.npz"
    path.write_text("not an archive\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: not a checkpoint")):
        load_checkpoint(path, expected_vocab_hash="abc123")


def test_checkpoint_missing_a_parameter_is_data_error(tmp_path, tiny_cfg):
    from slicevuln import DataError

    path = save_checkpoint(init(tiny_cfg, seed=4), tmp_path / "model.npz", "abc123")
    _rewrite_checkpoint(path, drop=("layers.0.Wq",))
    with pytest.raises(DataError, match=re.escape(f"{path}: parameters missing ['layers.0.Wq']")):
        load_checkpoint(path, expected_vocab_hash="abc123")


def test_checkpoint_config_disagreeing_with_its_arrays_is_data_error(tmp_path, tiny_cfg):
    from slicevuln import DataError

    net = init(dataclasses.replace(tiny_cfg, vocab_size=16), seed=4)
    path = save_checkpoint(net, tmp_path / "model.npz", "abc123")
    _rewrite_checkpoint(path, vocab_size=99)
    with pytest.raises(DataError, match=re.escape(f"{path}: parameter tok_emb has shape (16, 8)")):
        load_checkpoint(path, expected_vocab_hash="abc123")
