"""Bit-exactness and validation of the binary/CSV file formats."""

import numpy as np
import pytest

from crossmodal import formats
from crossmodal.errors import DataFormatError


def test_tensor_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 5), (3, 4, 2), ()]:
        arr = rng.normal(size=shape)
        path = tmp_path / "t.tnsr"
        formats.save_tensor(path, arr)
        back = formats.load_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_tensor_magic_and_truncation(tmp_path):
    path = tmp_path / "t.tnsr"
    formats.save_tensor(path, np.zeros((2, 2)))
    raw = path.read_bytes()
    (tmp_path / "bad.tnsr").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DataFormatError):
        formats.load_tensor(tmp_path / "bad.tnsr")
    (tmp_path / "short.tnsr").write_bytes(raw[:-8])
    with pytest.raises(DataFormatError):
        formats.load_tensor(tmp_path / "short.tnsr")
    (tmp_path / "long.tnsr").write_bytes(raw + b"\x00")
    with pytest.raises(DataFormatError):
        formats.load_tensor(tmp_path / "long.tnsr")


def test_spectrogram_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(257, 500)).astype(np.float32)
    path = tmp_path / "s.spec"
    formats.save_spectrogram(path, arr)
    back = formats.load_spectrogram_raw(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_spectrogram_wrong_channels_names_expected(tmp_path):
    import struct
    path = tmp_path / "bad.spec"
    payload = np.zeros((256, 500), dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"SPEC")
        fh.write(struct.pack("<II", 256, 500))
        fh.write(payload.tobytes())
    with pytest.raises(DataFormatError, match="257"):
        formats.load_spectrogram_raw(path)


def test_embedding_table_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    table = {w: rng.normal(size=300).astype(np.float32) for w in ("alpha", "beta", "gamma")}
    path = tmp_path / "e.embt"
    formats.save_embedding_table(path, table)
    back = formats.load_embedding_table(path)
    assert list(back) == list(table)
    for w in table:
        assert np.array_equal(back[w], table[w].astype(np.float64))


def test_stopwords_roundtrip(tmp_path):
    path = tmp_path / "stop.txt"
    formats.save_stopwords(path, ["the", "a", "of"])
    assert formats.load_stopwords(path) == frozenset({"the", "a", "of"})


def test_teacher_csv_roundtrip_and_renormalization(tmp_path):
    rows = {"img-0": np.array([0.5, 0.25, 0.25]),
            "img-1": np.array([1.0, 0.0, 0.0])}
    path = tmp_path / "teacher.csv"
    formats.save_teacher_csv(path, rows)
    back = formats.load_teacher_csv(path)
    for k in rows:
        assert np.allclose(back[k], rows[k], atol=1e-12)
        assert abs(back[k].sum() - 1.0) < 1e-12


def test_teacher_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "teacher.csv"
    path.write_text("img-0,0.5,0.4\n")  # sums to 0.9, off by more than 1e-6
    with pytest.raises(DataFormatError):
        formats.load_teacher_csv(path)
    path.write_text("img-0,1.1,-0.1\n")
    with pytest.raises(DataFormatError):
        formats.load_teacher_csv(path)
    path.write_text("img-0,0.5,0.25,0.25\nimg-1,0.5,0.5\n")  # ragged: sums to 1, one short
    with pytest.raises(DataFormatError, match=":2:"):
        formats.load_teacher_csv(path)
    path.write_text("img-0,0.5,0.5\n")
    slightly = formats.load_teacher_csv(path)
    assert abs(slightly["img-0"].sum() - 1.0) < 1e-12


def test_manifest_roundtrip(tmp_path):
    rows = [
        {"id": "img-0", "modality": "image", "path": "samples/img-0.tnsr",
         "pair_id": "0", "split": "train"},
        {"id": "snd-0", "modality": "sound", "path": "samples/snd-0.spec",
         "pair_id": "0", "split": "train"},
    ]
    path = tmp_path / "manifest.csv"
    formats.save_manifest_csv(path, rows)
    assert formats.load_manifest_csv(path) == rows
    path.write_text("id,modality\nimg-0,image\n")
    with pytest.raises(DataFormatError):
        formats.load_manifest_csv(path)


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    formats.save_labels_csv(path, {"img-0": 3, "snd-0": 1})
    assert formats.load_labels_csv(path) == {"img-0": 3, "snd-0": 1}
