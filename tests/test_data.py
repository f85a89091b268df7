"""Pre-processing contracts, splits, the synthetic generator, and batching."""

import tracemalloc

import numpy as np
import pytest

from crossmodal import data as dat
from crossmodal import formats
from crossmodal.errors import ConfigError, ContractError, DataFormatError, DegenerateInputError


# -- spectrogram / image loading ---------------------------------------------


def test_load_spectrogram_constant_file_becomes_zero(tmp_path):
    path = tmp_path / "c.spec"
    formats.save_spectrogram(path, np.full((257, 500), 3.25, dtype=np.float32))
    sample = dat.load_spectrogram(path)
    assert sample.modality == "sound"
    assert not sample.payload.any()


def test_load_spectrogram_roundtrip_preserves_raw_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(257, 500)).astype(np.float32)
    path = tmp_path / "s.spec"
    formats.save_spectrogram(path, raw)
    assert np.array_equal(formats.load_spectrogram_raw(path), raw)
    sample = dat.load_spectrogram(path)
    assert np.array_equal(sample.payload, dat.preprocess_spectrogram(raw))


def test_load_spectrogram_wrong_shape_names_257(tmp_path):
    import struct
    path = tmp_path / "bad.spec"
    with open(path, "wb") as fh:
        fh.write(b"SPEC")
        fh.write(struct.pack("<II", 256, 500))
        fh.write(np.zeros((256, 500), dtype="<f4").tobytes())
    with pytest.raises(DataFormatError, match="257"):
        dat.load_spectrogram(path)


def test_image_mean_subtraction_per_channel():
    raw = np.stack([np.full((4, 4), 2.0), np.full((4, 4), -1.0), np.zeros((4, 4))])
    out = dat.preprocess_image(raw)
    assert np.allclose(out, 0.0)


# -- text embedding ------------------------------------------------------------


def _table(words):
    rng = np.random.default_rng(7)
    return {w: rng.normal(size=300) for w in words}


def test_embed_text_exact_16_tokens_no_padding():
    words = [f"tok{i}" for i in range(16)]
    sample = dat.embed_text(words, _table(words), frozenset(), "t")
    assert sample.payload.shape == (300, 16)
    assert all(sample.payload[:, c].any() for c in range(16))


def test_embed_text_crops_to_first_16():
    words = [f"tok{i}" for i in range(20)]
    table = _table(words)
    sample = dat.embed_text(words, table, frozenset(), "t")
    assert np.array_equal(sample.payload[:, 15], table["tok15"])
    assert not any(np.array_equal(sample.payload[:, c], table[f"tok{i}"])
                   for c in range(16) for i in range(16, 20))


def test_embed_text_pads_short_sentences_with_zero_columns():
    words = ["alpha", "beta", "gamma"]
    sample = dat.embed_text(words, _table(words), frozenset(), "t")
    assert sample.payload.shape == (300, 16)
    assert sample.payload[:, :3].any()
    assert not sample.payload[:, 3:].any()


def test_embed_text_removes_stopwords_and_oov():
    words = ["the", "alpha", "unknownword", "beta"]
    table = _table(["alpha", "beta"])
    sample = dat.embed_text(words, table, frozenset({"the"}), "t")
    assert np.array_equal(sample.payload[:, 0], table["alpha"])
    assert np.array_equal(sample.payload[:, 1], table["beta"])
    assert not sample.payload[:, 2:].any()


def test_embed_text_empty_after_filter_is_degenerate():
    with pytest.raises(DegenerateInputError):
        dat.embed_text(["the", "of"], _table(["alpha"]), frozenset({"the", "of"}), "t")


# -- splits ----------------------------------------------------------------------


def test_make_splits_deterministic_disjoint_exhaustive():
    ids = [f"id{i:03d}" for i in range(100)]
    a = dat.make_splits(ids, seed=3, val_size=20, test_size=30)
    b = dat.make_splits(ids, seed=3, val_size=20, test_size=30)
    assert a == b
    assert len(a["train"]) == 50 and len(a["val"]) == 20 and len(a["test"]) == 30
    union = set(a["train"]) | set(a["val"]) | set(a["test"])
    assert union == set(ids)
    assert not set(a["train"]) & set(a["val"])
    assert not set(a["train"]) & set(a["test"])
    assert not set(a["val"]) & set(a["test"])


def test_make_splits_seed_changes_assignment():
    ids = [f"id{i:03d}" for i in range(60)]
    a = dat.make_splits(ids, seed=1, val_size=10, test_size=10)
    b = dat.make_splits(ids, seed=2, val_size=10, test_size=10)
    assert a != b


def test_make_splits_paper_scale_holdouts():
    # 5,000 held out per eval set, remainder to train
    ids = [f"v{i:05d}" for i in range(20_000)]
    splits = dat.make_splits(ids, seed=0, val_size=5000, test_size=5000)
    assert len(splits["val"]) == len(splits["test"]) == 5000
    assert len(splits["train"]) == 10_000


def test_make_splits_oversubscription_rejected():
    with pytest.raises(ConfigError):
        dat.make_splits(["a", "b", "c"], seed=0, val_size=2, test_size=2)
    with pytest.raises(ConfigError):  # would put one id in both train and test
        dat.make_splits(["a", "b", "c"], seed=0, val_size=-1, test_size=1)


# -- synthetic generator -----------------------------------------------------------


def _noiseless_world(**kw):
    defaults = dict(concepts=3, seed=11, image_noise=0.0, sound_noise=0.0,
                    text_noise=0.0, output_dim=16)
    defaults.update(kw)
    return dat.SyntheticWorld(**defaults)


def test_noiseless_world_same_concept_samples_identical():
    world = _noiseless_world()
    ds = dat.generate_synthetic(world, 6)
    for i in range(3):
        a, b = ds.triples[i], ds.triples[i + 3]
        assert a.concept == b.concept
        assert np.array_equal(a.image.payload, b.image.payload)
        assert np.array_equal(a.sound.payload, b.sound.payload)
        assert np.array_equal(a.text.payload, b.text.payload)


def test_concept_labels_balanced():
    world = dat.SyntheticWorld(concepts=4, seed=0, output_dim=8)
    ds = dat.generate_synthetic(world, 20)
    counts = np.bincount([t.concept for t in ds.triples], minlength=4)
    assert counts.max() - counts.min() <= 1


def test_generator_deterministic():
    world = dat.SyntheticWorld(concepts=3, seed=9, output_dim=8)
    a = dat.generate_synthetic(world, 5)
    b = dat.generate_synthetic(world, 5)
    for ta, tb in zip(a.triples, b.triples):
        assert np.array_equal(ta.image.payload, tb.image.payload)
        assert np.array_equal(ta.sound.payload, tb.sound.payload)
        assert np.array_equal(ta.text.payload, tb.text.payload)
        assert ta.sentence == tb.sentence


def test_teacher_rows_are_smoothed_one_hot():
    world = dat.SyntheticWorld(concepts=3, seed=0, output_dim=8, teacher_smoothing=0.01)
    ds = dat.generate_synthetic(world, 3)
    for t in ds.triples:
        row = ds.teacher.probs[t.image.id]
        assert abs(row.sum() - 1.0) < 1e-12
        assert row.argmax() == t.concept
        assert abs(row[t.concept] - (0.99 + 0.01 / 8)) < 1e-12


def test_world_validation():
    with pytest.raises(ConfigError):
        dat.SyntheticWorld(concepts=1, seed=0)
    with pytest.raises(ConfigError):
        dat.SyntheticWorld(concepts=3, seed=0, image_noise=-0.1)
    with pytest.raises(ConfigError):
        dat.SyntheticWorld(concepts=30, seed=0, output_dim=16)
    with pytest.raises(ConfigError):
        dat.generate_synthetic(dat.SyntheticWorld(concepts=3, seed=0), 0)


def _dual_ridge_probe(train_x, train_y, test_x, test_y, n_classes, lam=1e-3):
    """Linear one-vs-all probe in the dual (features can be wide)."""
    onehot = np.eye(n_classes)[train_y]
    gram = train_x @ train_x.T
    alpha = np.linalg.solve(gram + lam * np.eye(len(train_x)), onehot)
    scores = (test_x @ train_x.T) @ alpha
    return float((scores.argmax(axis=1) == test_y).mean())


@pytest.mark.parametrize("modality", ["image", "sound", "text"])
def test_each_modality_linearly_separable(modality):
    world = dat.SyntheticWorld(concepts=5, seed=4, image_noise=0.05,
                               sound_noise=0.05, output_dim=16)
    ds = dat.generate_synthetic(world, 100)
    feats = np.stack([getattr(t, modality).payload.reshape(-1) for t in ds.triples])
    labels = np.array([t.concept for t in ds.triples])
    train = np.arange(0, 100, 2)
    test = np.arange(1, 100, 2)
    acc = _dual_ridge_probe(feats[train], labels[train], feats[test], labels[test], 5)
    assert acc > 0.9, f"{modality} probe accuracy {acc}"


# -- pairing and batching --------------------------------------------------------


def _handles(n=10, concepts=3, seed=0):
    world = dat.SyntheticWorld(concepts=concepts, seed=seed, output_dim=8)
    ds = dat.generate_synthetic(world, n)
    return dat.handles_from_triples(ds)


@pytest.mark.parametrize("wrap", [list, iter], ids=["list", "iterator"])
def test_handles_keep_exactly_the_indexed_triples(wrap):
    world = dat.SyntheticWorld(concepts=3, seed=0, output_dim=8)
    handles = dat.handles_from_triples(dat.generate_synthetic(world, 9), wrap(range(1, 8, 2)))
    assert [s.id for s, _ in handles.image_sound] == ["img-00001", "img-00003",
                                                       "img-00005", "img-00007"]
    assert [t.id for _, t in handles.image_text] == ["txt-00001", "txt-00003",
                                                      "txt-00005", "txt-00007"]


def test_batch_iterator_alternates_and_covers_epoch():
    handles = _handles(n=9)
    batches = [dat.schedule_batch(handles, 3, 0, i) for i in range(6)]
    assert [b.pair_type for b in batches] == ["image+sound", "image+text"] * 3
    sound_ids = [s.id for b in batches[0::2] for s in b.positives]
    text_ids = [s.id for b in batches[1::2] for s in b.positives]
    assert sorted(sound_ids) == sorted(f"snd-{i:05d}" for i in range(9))
    assert sorted(text_ids) == sorted(f"txt-{i:05d}" for i in range(9))


def test_batch_iterator_deterministic():
    ha, hb = _handles(), _handles()
    for i in range(8):
        ba, bb = dat.schedule_batch(ha, 4, 7, i), dat.schedule_batch(hb, 4, 7, i)
        assert [s.id for s in ba.anchors] == [s.id for s in bb.anchors]
        assert [s.id for s in ba.positives] == [s.id for s in bb.positives]


def test_batch_teacher_rows_follow_anchor_ids():
    handles = _handles()
    batch = dat.schedule_batch(handles, 4, seed=1, iteration=0)
    for anchor, row in zip(batch.anchors, batch.teacher_rows):
        assert np.array_equal(row, handles.teacher.probs[anchor.id])


def test_batch_size_exceeding_pool_rejected():
    handles = _handles(n=5)
    with pytest.raises(ConfigError):
        dat.schedule_batch(handles, 6, seed=0, iteration=0)


def test_trailing_singleton_batch_merges():
    handles = _handles(n=7)
    sizes = [len(dat.schedule_batch(handles, 3, 0, i).anchors) for i in range(6)]
    assert sizes == [3, 3, 4, 4, 3, 3]  # 7 = 3 + 4 per modality epoch, pools interleaved


def test_sample_modality_validation():
    with pytest.raises(ContractError):
        dat.Sample("video", np.zeros(3), "x")


# -- dataset files ------------------------------------------------------------------


def test_write_and_load_dataset_matches_in_memory(tmp_path):
    world = dat.SyntheticWorld(concepts=3, seed=21, output_dim=8)
    manifest = dat.write_dataset(world, 9, tmp_path, val_size=2, test_size=3)
    loaded = dat.load_dataset(manifest)
    mem = dat.generate_synthetic(world, 9)

    assert len(loaded.samples) == 27
    for t in mem.triples:
        for sample in (t.image, t.sound, t.text):
            got = loaded.samples[sample.id]
            assert np.array_equal(got.payload, sample.payload), sample.id
    assert loaded.labels == mem.labels
    for sid, row in mem.teacher.probs.items():
        assert np.allclose(loaded.teacher.probs[sid], row, atol=1e-12)
    assert len(loaded.pair_ids("train")) == 4
    assert len(loaded.pair_ids("val")) == 2
    assert len(loaded.pair_ids("test")) == 3


def test_write_dataset_rerun_is_byte_identical(tmp_path):
    world = dat.SyntheticWorld(concepts=2, seed=5, output_dim=8)
    dat.write_dataset(world, 4, tmp_path / "a")
    dat.write_dataset(world, 4, tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_loaded_handles_feed_training_pools(tmp_path):
    world = dat.SyntheticWorld(concepts=2, seed=6, output_dim=8)
    manifest = dat.write_dataset(world, 6, tmp_path, test_size=2)
    loaded = dat.load_dataset(manifest)
    handles = loaded.handles("train")
    assert len(handles.image_sound) == 4
    assert len(handles.image_text) == 4
    assert handles.teacher is not None
    batch = dat.schedule_batch(handles, 2, seed=0, iteration=1)
    assert batch.pair_type == "image+text"


def test_raw_triples_drop_each_prototype_after_its_concepts_last_triple():
    # One triple per concept: holding every 257x500 sound prototype (1 MB
    # each) until the end would peak near 40 MB.
    world = dat.SyntheticWorld(concepts=40, seed=0)
    tracemalloc.start()
    try:
        for _ in dat.raw_triples(world, 40):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
