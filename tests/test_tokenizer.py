import numpy as np
import pytest

from slicevuln import Vocab, build_vocab, encode, normalize
from slicevuln.corpus import Kind, Label, Sample, SampleSet
from slicevuln.experiments import encode_set
from slicevuln.synth import pattern_corpus


def test_normalize_simple_declaration():
    assert normalize("int count = 0;") == "int VAR1 = 0 ;"


def test_normalize_preserves_api_names():
    assert normalize("strcpy(dst, src);") == "strcpy ( VAR1 , VAR2 ) ;"


def test_normalize_user_function_names():
    assert normalize("x = helper(a, b);") == "VAR1 = FUN1 ( VAR2 , VAR3 ) ;"


def test_normalize_string_and_long_number():
    assert normalize('printf("hi %s", name, 123456);') == "printf ( STR , VAR1 , NUM ) ;"


def test_normalize_short_numbers_kept():
    assert normalize("x = 1024 + 7;") == "VAR1 = 1024 + 7 ;"


def test_normalize_drops_comments_and_directives():
    out = normalize("#include <stdio.h>\nint a; // trailing\n/* block */ int b;")
    assert out == "int VAR1 ; int VAR2 ;"


def test_normalize_alpha_equivalence():
    a = normalize("int total = base + offset;\nbuf[total] = 0;")
    b = normalize("int sum = left + right;\narr[sum] = 0;")
    assert a == b


def test_normalize_idempotent_on_samples():
    corpus = pattern_corpus(seed=11)
    for s in corpus.samples[:200]:
        once = normalize(s.code)
        assert normalize(once) == once


def test_normalize_existing_placeholders_not_captured():
    out = normalize("int VAR1 = a;")
    assert out == "int VAR1 = VAR2 ;"
    assert normalize(out) == out


def test_build_vocab_empty_corpus():
    v = build_vocab([], max_size=16)
    assert len(v) == 3
    assert v.lookup("anything") == Vocab.UNK


def test_build_vocab_frequency_order():
    v = build_vocab(["a a b"], max_size=5)
    assert len(v) == 5
    assert v.lookup("a") == 3
    assert v.lookup("b") == 4


def test_build_vocab_tie_breaks_lexicographically():
    v = build_vocab(["b a"], max_size=5)
    assert v.lookup("a") == 3
    assert v.lookup("b") == 4


def test_build_vocab_respects_max_size():
    texts = [f"tok{i}" for i in range(100)]
    v = build_vocab(texts, max_size=10)
    assert len(v) == 10


def test_build_vocab_min_size():
    with pytest.raises(ValueError):
        build_vocab(["a"], max_size=3)


def test_encode_empty_text():
    v = build_vocab(["a b"], max_size=8)
    ids = encode("", v, max_len=6)
    assert ids.tolist() == [Vocab.CLS, 0, 0, 0, 0, 0]
    assert ids.dtype == np.int64


def test_encode_truncates():
    v = build_vocab(["a"], max_size=8)
    ids = encode(" ".join(["a"] * 600), v, max_len=512)
    assert ids.shape == (512,)
    assert (ids != Vocab.PAD).sum() == 512


def test_encode_unknown_token():
    v = build_vocab(["a"], max_size=8)
    assert encode("zzz", v, max_len=4)[1] == Vocab.UNK


def test_encode_mask_iff_pad():
    v = build_vocab(["a b c"], max_size=16)
    # only padding is PAD: an unknown token is UNK, so the live ids are a prefix
    ids = encode("a b zzz c", v, max_len=10)
    assert np.array_equal(ids != Vocab.PAD, np.arange(10) < 5)


def test_encode_mask_count_formula():
    v = build_vocab(["a b"], max_size=16)
    rng = np.random.default_rng(0)
    for _ in range(100):
        n_tokens = int(rng.integers(0, 30))
        max_len = int(rng.integers(2, 24))
        ids = encode(" ".join(["a"] * n_tokens), v, max_len)
        assert (ids != Vocab.PAD).sum() == min(n_tokens + 1, max_len)


def test_encode_reserved_literal_maps_to_unk():
    v = build_vocab(["a"], max_size=8)
    ids = encode("[PAD] a", v, max_len=5)
    # literal "[PAD]" is not the PAD id
    assert ids.tolist() == [Vocab.CLS, Vocab.UNK, v.lookup("a"), Vocab.PAD, Vocab.PAD]


def test_encode_min_len():
    v = build_vocab([], max_size=8)
    with pytest.raises(ValueError):
        encode("a", v, max_len=1)


def test_encoded_dataset_shapes():
    v = build_vocab(["a b"], max_size=8)
    samples = SampleSet([Sample("s0", Kind.API, Label.NON_VULNERABLE, "a;"),
                         Sample("s1", Kind.API, Label.VULNERABLE, "b a;")])
    data = encode_set(samples, ["a", "b a"], v, 6)
    assert data.ids.shape == (2, 6) and data.ids.dtype == np.int64
    assert data.ids.tolist() == [encode("a", v, 6).tolist(), encode("b a", v, 6).tolist()]
    assert data.labels.tolist() == [0, 1] and data.labels.dtype == np.int64
