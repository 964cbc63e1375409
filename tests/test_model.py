import dataclasses
import json
import math
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from slicevuln import (
    DataError,
    ModelConfig,
    NumericError,
    TrainConfig,
    forward,
    grad_check,
    init,
    model,
    predict,
    train,
)
from slicevuln.model import (Model, _backward_core, _forward_core, _loss_and_grad, _shapes,
                             _trim, load_checkpoint, save_checkpoint)
from slicevuln.tokenizer import EncodedDataset, Vocab, build_vocab

from conftest import random_batch, random_dataset, refuse_to_lay_out


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
    with pytest.raises(ValueError, match="vocab_size must exceed the 3 reserved ids, got 3"):
        ModelConfig(vocab_size=3)
    with pytest.raises(ValueError, match="max_len must be >= 2"):
        ModelConfig(max_len=1)
    assert ModelConfig(vocab_size=4, max_len=2).vocab_size == 4
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


def assert_one_layout(net):
    """Every parameter is a view of ``net.flat``, packed in layout order."""
    address = net.flat.ctypes.data
    assert net.flat.ndim == 1 and net.flat.flags.c_contiguous
    assert list(net.params) == list(_shapes(net.config))
    for name, shape in _shapes(net.config).items():
        p = net.params[name]
        assert p.shape == shape and np.shares_memory(p, net.flat), name
        assert p.ctypes.data == address, name
        address += p.nbytes
    assert address == net.flat.ctypes.data + net.flat.nbytes
    assert net.num_parameters() == net.flat.size


def test_init_train_and_load_give_one_layout(tmp_path, tiny_cfg):
    net = init(tiny_cfg, seed=0)
    assert_one_layout(net)
    net = _trained(tiny_cfg)[0]
    assert_one_layout(net)
    assert_one_layout(load_checkpoint(save_checkpoint(net, tmp_path / "m.npz", _vocab()))[0])


def test_grad_check_leaves_the_callers_vector_unchanged(tiny_cfg):
    for net in (init(tiny_cfg, seed=7), _trained(tiny_cfg)[0]):
        before = net.flat.copy()
        grad_check(net, random_dataset(tiny_cfg, 4, seed=3), num_samples=40)
        assert net.flat.dtype == before.dtype and np.array_equal(net.flat, before)


def test_forward_shape_and_softmax(tiny_cfg):
    net = init(tiny_cfg, seed=1)
    logits = forward(net, random_dataset(tiny_cfg, 1, seed=2))
    assert logits.shape == (1, 2)
    p = np.exp(logits - logits.max(-1, keepdims=True))
    p = p / p.sum(-1, keepdims=True)
    assert abs(p.sum() - 1.0) < 1e-9


def test_forward_rejects_wrong_length(tiny_cfg):
    net = init(tiny_cfg, seed=1)
    data = EncodedDataset(ids=np.array([[2, 3]]), labels=np.array([0]))
    with pytest.raises(ValueError, match="max_len"):
        forward(net, data)
    with pytest.raises(ValueError, match="max_len"):
        predict(net, data)


def test_token_wise_layers_see_only_live_rows(monkeypatch):
    import slicevuln.model as m

    cfg = desk_cfg(hidden_dim=16, ff_dim=32, max_len=16, vocab_size=40)
    lengths = np.array([3, 7, 12])
    live = np.arange(cfg.max_len) < lengths[:, None]
    ids = _trim(np.random.default_rng(0).integers(3, cfg.vocab_size, live.shape) * live)
    assert ids.shape == (3, 12)
    rows = []
    gelu = m._gelu

    def counting_gelu(x):
        rows.append(x.size // x.shape[-1])
        return gelu(x)

    monkeypatch.setattr(m, "_gelu", counting_gelu)
    _forward_core(init(cfg, seed=0), ids, np.random.default_rng(1))
    # block 0 sees the 3 + 7 + 12 live rows, the last block the 3 CLS rows
    assert rows == [22, 3]


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
    err = grad_check(net, data, num_samples=250)
    assert err < 1e-4


def test_grad_check_deterministic(tiny_cfg):
    net = init(tiny_cfg, seed=7)
    data = random_dataset(tiny_cfg, 4, seed=3)
    a = grad_check(net, data, num_samples=60)
    b = grad_check(net, data, num_samples=60)
    assert a == b


def test_unused_embedding_rows_get_zero_gradient(tiny_cfg):
    net = init(tiny_cfg, seed=7)
    data = random_dataset(tiny_cfg, 4, seed=3)
    logits, cache = _forward_core(net, data.ids, need_cache=True)
    _, dlogits = _loss_and_grad(logits, data.labels)
    grads = Model(tiny_cfg, np.empty_like(net.flat)).params
    _backward_core(net, cache, dlogits, grads)
    used = set(np.unique(data.ids[data.ids != Vocab.PAD]))
    unused = [i for i in range(tiny_cfg.vocab_size) if i not in used]
    assert set(unused) - {Vocab.PAD}, "test premise: some token rows are untouched"
    assert np.all(grads["tok_emb"][unused] == 0.0)
    assert np.all(grads["tok_emb"][Vocab.PAD] == 0.0)


def _gradient_into(net, ids, labels, grad):
    logits, cache = _forward_core(net, ids, need_cache=True)
    _, dlogits = _loss_and_grad(logits, labels)
    _backward_core(net, cache, dlogits, Model(net.config, grad).params)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_backward_writes_every_slot_of_a_reused_buffer(dtype):
    # train reuses one gradient vector: a shorter batch after a longer one
    # must leave nothing of the longer one's gradient, pos_emb rows included
    cfg = desk_cfg(hidden_dim=16, ff_dim=32, max_len=12, vocab_size=40, dropout=0.0)
    net = Model(cfg, init(cfg, seed=7).flat.astype(dtype))
    data = random_dataset(cfg, 4, seed=3)
    long_ids = _trim(data.ids)
    short_ids = data.ids.copy()
    short_ids[:, 3:] = Vocab.PAD
    short_ids = _trim(short_ids)
    reused = np.empty_like(net.flat)
    _gradient_into(net, long_ids, data.labels, reused)
    L = short_ids.shape[1]
    assert np.any(Model(cfg, reused).params["pos_emb"][L:] != 0), "test premise"
    _gradient_into(net, short_ids, data.labels, reused)
    fresh = np.full_like(net.flat, np.nan)
    _gradient_into(net, short_ids, data.labels, fresh)
    assert np.isfinite(fresh).all()
    assert reused.tobytes() == fresh.tobytes()


STEP_FIXTURE = Path(__file__).parent / "fixtures" / "train_step.npz"


def _step_cases(tiny_cfg):
    """name -> (config, batch size, dropout seed or None, trim to length 1)."""
    desk = desk_cfg(hidden_dim=16, ff_dim=32, max_len=12, vocab_size=40)
    return {
        "tiny": (tiny_cfg, 4, None, False),
        "tiny-dropout": (dataclasses.replace(tiny_cfg, dropout=0.2), 4, 5, False),
        "desk-dropout": (desk, 6, 5, False),
        "desk-eval": (desk, 6, None, False),
        "desk-one-sample": (desk, 1, 5, False),
        "desk-length-one": (desk, 3, 5, True),
    }


def _train_step(cfg, n, dropout_seed, length_one, dtype=np.float64):
    """Logits, every gradient and, with dropout, the generator's next draw
    for one training step of a seeded model, its parameters cast to
    ``dtype``, on a padded batch."""
    net = Model(cfg, init(cfg, seed=7).flat.astype(dtype))
    data = random_dataset(cfg, n, seed=3)
    ids = data.ids.copy()
    if length_one:
        ids[:, 1:] = Vocab.PAD
    ids = _trim(ids)
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    logits, cache = _forward_core(net, ids, rng, need_cache=True)
    _, dlogits = _loss_and_grad(logits, data.labels)
    out = {"logits": logits}
    grads = Model(cfg, np.empty_like(net.flat)).params
    _backward_core(net, cache, dlogits, grads)
    out.update((f"grad.{name}", g) for name, g in grads.items())
    if rng is not None:
        out["next_draw"] = rng.random(1)  # where the dropout stream stopped
    return out


def _pinned_step(case):
    with np.load(STEP_FIXTURE) as blob:
        return {k.split("/", 1)[1]: blob[k] for k in blob.files if k.startswith(case + "/")}


@pytest.mark.parametrize("case", ["tiny", "tiny-dropout", "desk-dropout", "desk-eval",
                                  "desk-one-sample", "desk-length-one"])
def test_train_step_matches_the_pinned_step(tiny_cfg, case):
    # the fixture is _train_step's output on the model that ran every block
    # on all rows; cutting the last block to the CLS row may move roundoff only
    want = _pinned_step(case)
    got = _train_step(*_step_cases(tiny_cfg)[case])
    assert want and got.keys() == want.keys()
    for name, value in want.items():
        np.testing.assert_allclose(got[name], value, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("case", ["tiny", "tiny-dropout", "desk-dropout", "desk-eval",
                                  "desk-one-sample", "desk-length-one"])
def test_train_step_in_float32_matches_the_pinned_step(tiny_cfg, case):
    # the same float64 fixture: a float32 step stays within single-precision
    # roundoff of it, makes no float64 logit or gradient, and draws the
    # dropout stream exactly as far
    want = _pinned_step(case)
    got = _train_step(*_step_cases(tiny_cfg)[case], dtype=np.float32)
    assert want and got.keys() == want.keys()
    for name, value in want.items():
        if name == "next_draw":
            assert np.array_equal(got[name], value)
            continue
        assert got[name].dtype == np.float32, name
        np.testing.assert_allclose(got[name], value, rtol=0, atol=1e-5, err_msg=name)


def make_separable_dataset(cfg, n=64):
    """Class 1 sequences contain token 5, class 0 contain token 6."""
    rng = np.random.default_rng(0)
    rows, labels = [], []
    for i in range(n):
        label = i % 2
        length = int(rng.integers(4, cfg.max_len))
        ids = np.zeros(cfg.max_len, dtype=np.int64)
        ids[0] = 2
        filler = rng.integers(7, cfg.vocab_size, size=length - 1)
        ids[1:length] = filler
        ids[1 + int(rng.integers(0, length - 1))] = 5 if label else 6
        rows.append(ids)
        labels.append(label)
    return EncodedDataset(ids=np.stack(rows), labels=np.array(labels))


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


def test_train_runs_in_float32(tiny_cfg, monkeypatch):
    # a rising validation loss stops training at epoch 2 and restores the
    # weights kept after epoch 1, so the kept copy is float32 too
    import slicevuln.model as m

    losses = iter([1.0, 2.0])
    monkeypatch.setattr(m, "_eval_loss_acc", lambda model, data, batch_size: (next(losses), 0.5))
    data = random_dataset(tiny_cfg, 8, seed=0)
    net, history = train(init(tiny_cfg, seed=0), data, data,
                         TrainConfig(epochs=5, early_stop_patience=1))
    assert history.stopped_epoch == 2
    assert all(p.dtype == np.float32 for p in net.params.values())


def _trained(cfg):
    data = random_dataset(cfg, 16, seed=5)
    net, _ = train(init(cfg, seed=0), data, data,
                   TrainConfig(epochs=3, early_stop_patience=3, learning_rate=0.05))
    return net, data


def test_grad_check_refuses_a_non_finite_gradient(tiny_cfg):
    net = init(tiny_cfg, seed=7)
    net.params["head_b"][:] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="^non-finite gradient in tok_emb$"):
        grad_check(net, random_dataset(tiny_cfg, 4, seed=3))


def test_grad_check_refuses_labels_that_do_not_match_the_rows(tiny_cfg):
    data = random_dataset(tiny_cfg, 2, seed=3)
    data = EncodedDataset(ids=data.ids, labels=data.labels[:1])
    with pytest.raises(ValueError, match="^logits and labels differ in batch size$"):
        grad_check(init(tiny_cfg, seed=7), data)


def test_grad_check_on_a_trained_float32_model(tiny_cfg):
    net, data = _trained(tiny_cfg)
    assert grad_check(net, data, num_samples=250) < 1e-4
    assert all(p.dtype == np.float32 for p in net.params.values())


def test_predict_threshold_tie_is_vulnerable(tiny_cfg):
    # logits (0,0) gives probability exactly 0.5 -> class 1 by the >= rule
    net = init(tiny_cfg, seed=0)
    for name in ("head_W", "head_b"):
        net.params[name][:] = 0.0
    data = random_dataset(tiny_cfg, 3, seed=1)
    assert predict(net, data).tolist() == [1, 1, 1]


def test_validation_accuracy_uses_the_predict_rule(tiny_cfg):
    # the tie model of the test above: validation must score its logits
    # (0, 0) as vulnerable too, as predict does
    from slicevuln.model import _eval_loss_acc

    net = init(tiny_cfg, seed=0)
    for name in ("head_W", "head_b"):
        net.params[name][:] = 0.0
    data = random_dataset(tiny_cfg, 3, seed=1)
    data = EncodedDataset(ids=data.ids, labels=np.array([1, 1, 0]))
    _, accuracy = _eval_loss_acc(net, data, batch_size=2)
    assert accuracy == (predict(net, data) == data.labels).mean() == pytest.approx(2 / 3)


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
    rows, labels = random_batch(tiny_cfg, 10, seed=3)
    base = predict(net, EncodedDataset(ids=np.stack(rows), labels=labels))
    perm = np.random.default_rng(0).permutation(10)
    shuffled = predict(net, EncodedDataset(ids=np.stack(rows)[perm], labels=labels[perm]))
    assert np.array_equal(shuffled, base[perm])


def test_forward_batches_in_length_order(tiny_cfg, monkeypatch):
    # rows given longest first still run shortest first, so the batch
    # widths, each trimmed to its longest row, never decrease
    data = random_dataset(tiny_cfg, 17, seed=2)
    longest_first = np.argsort(-(data.ids != Vocab.PAD).sum(1), kind="stable")
    data = EncodedDataset(ids=data.ids[longest_first], labels=data.labels[longest_first])
    widths = []

    def recording(net, ids, *args, **kwargs):
        widths.append(ids.shape[1])
        return _forward_core(net, ids, *args, **kwargs)

    monkeypatch.setattr(model, "_forward_core", recording)
    logits = forward(init(tiny_cfg, seed=9), data, batch_size=4)
    assert len(widths) == 5 and widths == sorted(widths)
    monkeypatch.undo()
    assert np.allclose(logits, forward(init(tiny_cfg, seed=9), data, batch_size=1),
                       rtol=0, atol=1e-12)


def test_predict_holds_no_copy_of_the_ids():
    # 2000 rows at max_len 512 whose live prefix is at most 16 ids: predict
    # may gather a batch at a time, but not a second array of all the rows
    import tracemalloc

    cfg = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, ff_dim=16, max_len=512,
                      vocab_size=32, dropout=0.0)
    rng = np.random.default_rng(4)
    ids = np.zeros((2000, 512), dtype=np.int64)
    ids[:, 0] = Vocab.CLS
    for row, length in zip(ids, rng.integers(1, 16, size=len(ids))):
        row[1:length] = rng.integers(3, cfg.vocab_size, size=length - 1)
    data = EncodedDataset(ids=ids, labels=rng.integers(0, 2, size=len(ids)))
    net = init(cfg, seed=1)
    tracemalloc.start()
    try:
        labels = predict(net, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.shape == (2000,)
    assert peak < ids.nbytes, f"predict peaked at {peak} bytes for {ids.nbytes} of ids"


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
    for name in ("learning_rate", "weight_decay"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TrainConfig(**{name: value})


def test_train_aborts_on_nonfinite_loss(tiny_cfg):
    data = random_dataset(tiny_cfg, 8, seed=5)
    net = init(tiny_cfg, seed=0)
    net.params["tok_emb"][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        train(net, data, data, TrainConfig(epochs=1))


def test_train_refuses_an_empty_set(tiny_cfg):
    data = random_dataset(tiny_cfg, 4, seed=5)
    empty = EncodedDataset(ids=data.ids[:0], labels=data.labels[:0])
    for train_data, val_data in ((empty, data), (data, empty)):
        with pytest.raises(DataError,
                           match="^training and validation sets must be non-empty$"):
            train(init(tiny_cfg, seed=0), train_data, val_data, TrainConfig(epochs=1))


def test_optimizer_step_rejects_nonfinite_update(tiny_cfg):
    from slicevuln.model import _adamw_step

    net = init(tiny_cfg, seed=0)
    grad, m, v = np.zeros_like(net.flat), np.zeros_like(net.flat), np.zeros_like(net.flat)
    Model(tiny_cfg, grad).params["head_W"][:] = np.inf
    decay = np.ones_like(net.flat)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="head_W"):
        _adamw_step(net, grad, m, v, decay, 1, TrainConfig())


def _vocab(n=5):
    return Vocab([f"t{i}" for i in range(n)])


def test_checkpoint_round_trip(tmp_path, tiny_cfg):
    # init's float64 parameters, as a checkpoint of an untrained model or
    # one written before training ran in float32 stores them, load cast
    net, vocab = init(tiny_cfg, seed=4), build_vocab(["alpha beta beta gamma"], max_size=10)
    data = random_dataset(tiny_cfg, 4, seed=6)
    path = save_checkpoint(net, tmp_path / "model.npz", vocab)
    back, back_vocab = load_checkpoint(path)
    assert back.config == tiny_cfg
    single = Model(tiny_cfg, net.flat.astype(np.float32))
    for name in net.params:
        assert back.params[name].dtype == np.float32
        assert np.array_equal(back.params[name], single.params[name])
    assert np.array_equal(forward(single, data), forward(back, data))
    assert back_vocab.tokens == vocab.tokens
    for token in ("alpha", "beta", "gamma", "delta", "[PAD]"):
        assert back_vocab.lookup(token) == vocab.lookup(token)


def test_trained_checkpoint_keeps_float32(tmp_path, tiny_cfg):
    net, data = _trained(tiny_cfg)
    path = save_checkpoint(net, tmp_path / "model.npz", _vocab())
    with np.load(path) as blob:
        assert all(blob[name].dtype == np.float32 for name in net.params)
    back, _ = load_checkpoint(path)
    assert np.array_equal(forward(back, data), forward(net, data))


def _rewrite_checkpoint(path, drop=(), meta=None, **config):
    """Rewrite a saved checkpoint without the ``drop`` arrays and metadata
    fields, with the ``meta`` fields set and ``config`` merged into its
    stored model config."""
    with np.load(path) as blob:
        arrays = {name: blob[name] for name in blob.files if name not in drop}
    stored = json.loads(bytes(arrays.pop("__meta__")).decode())
    stored.update(meta or {})
    stored["config"].update(config)
    stored = {key: value for key, value in stored.items() if key not in drop}
    np.savez(path, __meta__=np.frombuffer(json.dumps(stored).encode(), dtype=np.uint8),
             **arrays)


def test_checkpoint_that_is_not_an_archive_is_data_error(tmp_path):
    path = tmp_path / "model.npz"
    path.write_text("not an archive\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: not a checkpoint")):
        load_checkpoint(path)


def test_checkpoint_missing_a_parameter_is_data_error(tmp_path, tiny_cfg):
    path = save_checkpoint(init(tiny_cfg, seed=4), tmp_path / "model.npz", _vocab())
    _rewrite_checkpoint(path, drop=("layers.0.Wq",))
    with pytest.raises(DataError, match=re.escape(f"{path}: parameters missing ['layers.0.Wq']")):
        load_checkpoint(path)


def test_checkpoint_config_disagreeing_with_its_arrays_is_data_error(tmp_path, tiny_cfg):
    net = init(dataclasses.replace(tiny_cfg, vocab_size=16), seed=4)
    path = save_checkpoint(net, tmp_path / "model.npz", _vocab())
    _rewrite_checkpoint(path, vocab_size=99)
    with pytest.raises(DataError, match=re.escape(f"{path}: parameter tok_emb has shape (16, 8)")):
        load_checkpoint(path)


def test_checkpoint_config_far_larger_than_its_arrays_is_data_error(tmp_path, tiny_cfg,
                                                                     monkeypatch):
    # a config claiming 2**44 embedding rows is refused by its parameter
    # count, before the 2**47-value layout is asked for
    path = save_checkpoint(init(tiny_cfg, seed=4), tmp_path / "model.npz", _vocab())
    _rewrite_checkpoint(path, vocab_size=2**44)
    monkeypatch.setattr(model, "_shapes", refuse_to_lay_out)
    with pytest.raises(DataError, match=re.escape(f"{path}: not a checkpoint (ValueError: ")
                       + f".*vocab_size {2**44} give .* parameters, over the limit of 2\\*\\*31"):
        load_checkpoint(path)


def test_checkpoint_config_of_a_billion_layers_is_data_error(tmp_path, tiny_cfg, monkeypatch):
    # _shapes would make 16 entries per layer before any shape is compared
    path = save_checkpoint(init(tiny_cfg, seed=4), tmp_path / "model.npz", _vocab())
    _rewrite_checkpoint(path, num_layers=10**9)
    monkeypatch.setattr(model, "_shapes", refuse_to_lay_out)
    with pytest.raises(DataError, match=re.escape(
            f"{path}: not a checkpoint (ValueError: num_layers {10**9}, hidden_dim 8")):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value,message", [
    ("num_layers", 1.0, "num_layers must be an integer, got 1.0"),
    ("hidden_dim", 8.0, "hidden_dim must be an integer, got 8.0"),
    ("max_len", 16.0, "max_len must be an integer, got 16.0"),
    ("vocab_size", 32.0, "vocab_size must be an integer, got 32.0"),
    ("num_layers", True, "num_layers must be an integer, got True"),
    ("num_heads", True, "num_heads must be an integer, got True"),
    ("dropout", False, "dropout must be a number, got False"),
])
def test_checkpoint_config_of_the_wrong_type_is_data_error(tmp_path, tiny_cfg, field, value,
                                                           message):
    # JSON's 1.0 and true pass every range check a size has
    path = save_checkpoint(init(tiny_cfg, seed=4), tmp_path / "model.npz", _vocab())
    _rewrite_checkpoint(path, **{field: value})
    with pytest.raises(DataError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: not a checkpoint (ValueError: {message})"


def test_checkpoint_error_quotes_an_unknown_config_key_clipped(tmp_path, tiny_cfg):
    # Python's TypeError text names the whole keyword, however long
    path = save_checkpoint(init(tiny_cfg, seed=4), tmp_path / "model.npz", _vocab())
    _rewrite_checkpoint(path, **{"k" * 1000: 1})
    with pytest.raises(DataError) as err:
        load_checkpoint(path)
    text = "ModelConfig.__init__() got an unexpected keyword argument 'kkk"
    assert str(err.value).startswith(f"{path}: not a checkpoint (TypeError: {text}")
    assert str(err.value).endswith("kkk...)")
    assert len(str(err.value)) == len(f"{path}: not a checkpoint (TypeError: )") + 83


def test_checkpoint_error_quotes_a_bad_array_header_clipped(tmp_path):
    # numpy's text quotes a header it cannot parse whole, up to 10,000 bytes
    header = b"{'descr': '<u1', 'fortran_order': False, 'shape': (3,), " + b"y" * 3000 + b"}"
    header += b" " * (-(len(header) + 11) % 64) + b"\n"
    path = tmp_path / "model.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("__meta__.npy", b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                         + header + b"abc")
    with pytest.raises(DataError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: not a checkpoint (ValueError: Cannot parse header")
    assert len(str(err.value)) == len(f"{path}: not a checkpoint (ValueError: )") + 83


def test_checkpoint_parameter_that_is_not_numbers_is_data_error(tmp_path, tiny_cfg):
    path = save_checkpoint(init(tiny_cfg, seed=4), tmp_path / "model.npz", _vocab())
    with np.load(path) as blob:
        arrays = {name: blob[name] for name in blob.files}
    arrays["head_b"] = np.array(["x", "y"])
    np.savez(path, **arrays)
    with pytest.raises(DataError, match=re.escape(f"{path}: parameter head_b holds <U1")):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2])
def test_old_checkpoint_version_is_data_error_that_says_to_retrain(tmp_path, tiny_cfg,
                                                                   version):
    # the earlier formats: version 1 kept the vocabulary in vocab.txt and held
    # its hash and the parameter shapes; version 2 held the vocabulary, a
    # normalization setting and num_classes in the stored model config
    net, vocab = init(tiny_cfg, seed=4), _vocab()
    path = save_checkpoint(net, tmp_path / "model.npz", vocab)
    if version == 1:
        _rewrite_checkpoint(path, drop=("vocab",), meta={
            "version": 1,
            "vocab_hash": "7d289cf495d1597a1d5dface71fa8640d760aff0ef380e1c3e865348bf0e93ca",
            "shapes": {name: list(p.shape) for name, p in net.params.items()}})
    else:
        _rewrite_checkpoint(path, meta={"version": 2, "normalize_symbols": True},
                            num_classes=2)
    with pytest.raises(DataError, match=re.escape(
            f"{path}: unsupported checkpoint version {version} (this slicevuln reads "
            "version 3); retrain the model")):
        load_checkpoint(path)


@pytest.mark.parametrize("meta, named", [
    ({"vocab": "t0 t1"}, "the stored vocabulary is not a list of strings"),
    ({"vocab": ["t0", 1]}, "the stored vocabulary is not a list of strings"),
    ({"vocab": ["t0", "t1", "t0"]}, "the stored vocabulary repeats the token 't0'"),
    ({"vocab": [f"t{i}" for i in range(30)]},
     "the stored vocabulary holds 30 tokens; vocab_size 32 leaves room for 29"),
], ids=["not-a-list", "not-strings", "repeated-token", "too-many-tokens"])
def test_checkpoint_with_a_bad_stored_setting_is_data_error(tmp_path, tiny_cfg, meta, named):
    path = save_checkpoint(init(tiny_cfg, seed=4), tmp_path / "model.npz", _vocab())
    _rewrite_checkpoint(path, meta=meta)
    with pytest.raises(DataError, match=re.escape(f"{path}: {named}")):
        load_checkpoint(path)


def test_checkpoint_vocabulary_may_fill_the_embedding_table(tmp_path, tiny_cfg):
    vocab = _vocab(tiny_cfg.vocab_size - len(Vocab.RESERVED))
    path = save_checkpoint(init(tiny_cfg, seed=4), tmp_path / "model.npz", vocab)
    assert len(load_checkpoint(path)[1]) == tiny_cfg.vocab_size
