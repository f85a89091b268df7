"""Binary and CSV file formats, all little-endian and bit-exact.

Tensor blobs:       magic "TNSR", u32 rank, u64 extents, f64 payload row-major.
Spectrograms:       magic "SPEC", u32 channels, u32 frames, f32 payload.
Embedding tables:   magic "EMBT", u32 vocab size, u32 dim, then per word a
                    u32 byte length, UTF-8 bytes, and dim f32 values.
Teacher targets:    CSV of id followed by output_dim probabilities.
Stop words:         plain text, one word per line.
Dataset manifest:   CSV with header id,modality,path,pair_id,split.
Labels:             CSV with header id,label.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError

TENSOR_MAGIC = b"TNSR"
SPECTROGRAM_MAGIC = b"SPEC"
EMBEDDING_MAGIC = b"EMBT"

SPECTROGRAM_CHANNELS = 257
SPECTROGRAM_FRAMES = 500
EMBEDDING_DIM = 300

MANIFEST_FIELDS = ("id", "modality", "path", "pair_id", "split")


def save_tensor(path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype="<f8", order="C")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.data)  # the C-ordered buffer itself, no bytes copy


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TENSOR_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
        (rank,) = struct.unpack("<I", _read_exact(fh, 4, path))
        shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, path))
        count = int(np.prod(shape)) if rank else 1
        payload = _read_exact(fh, 8 * count, path)
        if fh.read(1):
            raise DataFormatError(f"{path}: trailing bytes after tensor payload")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)


def save_spectrogram(path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.shape != (SPECTROGRAM_CHANNELS, SPECTROGRAM_FRAMES):
        raise DataFormatError(
            f"spectrogram must be {SPECTROGRAM_CHANNELS}x{SPECTROGRAM_FRAMES}, got {arr.shape}"
        )
    with open(path, "wb") as fh:
        fh.write(SPECTROGRAM_MAGIC)
        fh.write(struct.pack("<II", *arr.shape))
        fh.write(arr.data)  # the C-ordered buffer itself, no bytes copy


def load_spectrogram_raw(path) -> np.ndarray:
    """Read a SPEC file and return the raw float32 payload (no preprocessing)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SPECTROGRAM_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {SPECTROGRAM_MAGIC!r}")
        channels, frames = struct.unpack("<II", _read_exact(fh, 8, path))
        if channels != SPECTROGRAM_CHANNELS or frames != SPECTROGRAM_FRAMES:
            raise DataFormatError(
                f"{path}: spectrogram is {channels}x{frames}, "
                f"expected {SPECTROGRAM_CHANNELS}x{SPECTROGRAM_FRAMES}"
            )
        payload = _read_exact(fh, 4 * channels * frames, path)
        if fh.read(1):
            raise DataFormatError(f"{path}: trailing bytes after spectrogram payload")
    return np.frombuffer(payload, dtype="<f4").reshape(channels, frames).copy()


def save_embedding_table(path, table: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<II", len(table), EMBEDDING_DIM))
        for word, vec in table.items():
            arr = np.ascontiguousarray(vec, dtype="<f4")
            if arr.shape != (EMBEDDING_DIM,):
                raise DataFormatError(f"embedding for {word!r} has shape {arr.shape}")
            raw = word.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(arr.tobytes())


def load_embedding_table(path) -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != EMBEDDING_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {EMBEDDING_MAGIC!r}")
        vocab, dim = struct.unpack("<II", _read_exact(fh, 8, path))
        if dim != EMBEDDING_DIM:
            raise DataFormatError(f"{path}: embedding dim {dim}, expected {EMBEDDING_DIM}")
        for _ in range(vocab):
            (nbytes,) = struct.unpack("<I", _read_exact(fh, 4, path))
            word = _read_exact(fh, nbytes, path).decode("utf-8")
            vec = np.frombuffer(_read_exact(fh, 4 * dim, path), dtype="<f4")
            table[word] = vec.astype(np.float64)
        if fh.read(1):
            raise DataFormatError(f"{path}: trailing bytes after embedding records")
    return table


def save_stopwords(path, words) -> None:
    Path(path).write_text("".join(f"{w}\n" for w in words), encoding="utf-8")


def load_stopwords(path) -> frozenset[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return frozenset(w.strip() for w in lines if w.strip())


def save_teacher_csv(path, probs: dict[str, np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for sample_id, row in probs.items():
            writer.writerow([sample_id] + [repr(float(v)) for v in row])


def load_teacher_csv(path) -> dict[str, np.ndarray]:
    """Read teacher rows; renormalize rows off by <= 1e-6 and reject worse.
    Every row must be as long as the first."""
    probs: dict[str, np.ndarray] = {}
    width = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            sample_id, values = row[0], row[1:]
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric probability") from exc
            width = vec.size if width is None else width
            if vec.size != width:
                raise DataFormatError(
                    f"{path}:{lineno}: row has {vec.size} probabilities, "
                    f"the first row has {width}"
                )
            if (vec < 0).any():
                raise DataFormatError(f"{path}:{lineno}: negative probability")
            total = vec.sum()
            if abs(total - 1.0) > 1e-6:
                raise DataFormatError(
                    f"{path}:{lineno}: probabilities sum to {total!r}, off by more than 1e-6"
                )
            probs[sample_id] = vec / total
    return probs


def save_manifest_csv(path, rows) -> None:
    """rows: iterable of dicts with MANIFEST_FIELDS keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def load_manifest_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_FIELDS:
            raise DataFormatError(
                f"{path}: manifest header {reader.fieldnames}, expected {list(MANIFEST_FIELDS)}"
            )
        return [dict(row) for row in reader]


def save_labels_csv(path, labels: dict[str, int]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for sample_id, label in labels.items():
            writer.writerow([sample_id, label])


def load_labels_csv(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "label"]:
            raise DataFormatError(f"{path}: labels header {header}, expected ['id', 'label']")
        for row in reader:
            if row:
                labels[row[0]] = int(row[1])
    return labels


def _read_exact(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise DataFormatError(f"{path}: truncated file")
    return data
