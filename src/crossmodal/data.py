"""Input formats, pre-processing, pairing, splits, and a synthetic generator.

Real corpora are out of reach at desk scale, so a ``SyntheticWorld`` stands in:
K concepts, each keyed to an image blob pattern, a harmonic spectrogram
signature, and a 50-word vocabulary (plus shared function words that the stop
list removes). Every sample is a pure function of (world seed, triple index),
so the in-memory generator and the on-disk dataset agree bitwise.

Pre-processing contracts: spectrograms are 257x500 and mean-subtracted
per file; images are mean-subtracted per channel; sentences lose stop words,
drop out-of-vocabulary tokens, and are padded/cropped to 16 embedded columns.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError, DegenerateInputError, require
from . import formats

MODALITIES = ("image", "sound", "text")
PAIR_TYPES = ("image+sound", "image+text")
TEXT_COLUMNS = 16

FUNCTION_WORDS = (
    "the", "a", "an", "of", "and", "or", "in", "on", "at", "to",
    "with", "is", "are", "was", "were", "it", "this", "that", "for", "as",
)


@dataclass
class Sample:
    """One modality-tagged input. Payload shapes follow the modality contract:
    image (3,H,W) float64, sound (257,500) float32, text (300,16) float64."""

    modality: str
    payload: np.ndarray
    id: str

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ContractError(f"unknown modality {self.modality!r}")


@dataclass
class PairedBatch:
    """Synchronized cross-modal pairs: anchors are images, positives the other
    modality. Sound+text batches cannot be constructed; those pairs are never
    supervised."""

    pair_type: str
    anchors: list[Sample]
    positives: list[Sample]
    teacher_rows: np.ndarray | None = None

    def __post_init__(self):
        if self.pair_type not in PAIR_TYPES:
            raise ContractError(
                f"pair type must be one of {PAIR_TYPES}, got {self.pair_type!r}"
            )
        if len(self.anchors) != len(self.positives):
            raise ContractError("anchor and positive lists differ in length")
        expected = self.pair_type.split("+")[1]
        for a, p in zip(self.anchors, self.positives):
            if a.modality != "image":
                raise ContractError(f"anchor {a.id} has modality {a.modality}, expected image")
            if p.modality != expected:
                raise ContractError(f"positive {p.id} has modality {p.modality}, expected {expected}")
        if self.teacher_rows is not None and len(self.teacher_rows) != len(self.anchors):
            raise ContractError("teacher rows do not match batch size")


@dataclass
class TeacherTargets:
    """Image id -> class-probability row; rows validated to sum to 1."""

    probs: dict[str, np.ndarray]

    def __post_init__(self):
        for sample_id, row in self.probs.items():
            row = np.asarray(row, dtype=np.float64)
            if (row < 0).any():
                raise ContractError(f"teacher row for {sample_id} has negative entries")
            if abs(row.sum() - 1.0) > 1e-6:
                raise ContractError(f"teacher row for {sample_id} sums to {row.sum()!r}")
            self.probs[sample_id] = row

    def rows_for(self, ids) -> np.ndarray:
        try:
            return np.stack([self.probs[i] for i in ids])
        except KeyError as exc:
            raise ConfigError(f"no teacher row for sample {exc}") from exc


# -- pre-processing ---------------------------------------------------------


def preprocess_spectrogram(raw: np.ndarray) -> np.ndarray:
    """Subtract the per-file scalar mean; stays float32 for storage economy."""
    wide = np.asarray(raw, dtype=np.float64)
    return (wide - float(wide.mean())).astype(np.float32)


def preprocess_image(raw: np.ndarray) -> np.ndarray:
    """Subtract the per-channel mean of this image."""
    arr = np.asarray(raw, dtype=np.float64)
    return arr - arr.mean(axis=(1, 2), keepdims=True)


def load_spectrogram(path, sample_id: str | None = None) -> Sample:
    raw = formats.load_spectrogram_raw(path)
    return Sample(modality="sound", payload=preprocess_spectrogram(raw),
                  id=sample_id or Path(path).stem)


def load_image(path, sample_id: str | None = None) -> Sample:
    raw = formats.load_tensor(path)
    if raw.ndim != 3:
        raise DataFormatError(f"{path}: image tensor must be (C,H,W), got {raw.shape}")
    return Sample(modality="image", payload=preprocess_image(raw),
                  id=sample_id or Path(path).stem)


def embed_text(tokens, table: dict[str, np.ndarray], stopwords,
               sample_id: str = "") -> Sample:
    """Stop words out, out-of-vocabulary words dropped, embed the rest, and
    pad with zero columns / crop to exactly 16 tokens."""
    stop = set(stopwords)
    kept = [t for t in tokens if t not in stop and t in table]
    if not kept:
        raise DegenerateInputError("no embeddable tokens left after filtering")
    kept = kept[:TEXT_COLUMNS]
    payload = np.zeros((formats.EMBEDDING_DIM, TEXT_COLUMNS))
    for col, word in enumerate(kept):
        payload[:, col] = np.asarray(table[word], dtype=np.float64)
    return Sample(modality="text", payload=payload, id=sample_id)


def load_text(path, table, stopwords, sample_id: str | None = None) -> Sample:
    tokens = Path(path).read_text(encoding="utf-8").split()
    return embed_text(tokens, table, stopwords, sample_id or Path(path).stem)


# -- splits -----------------------------------------------------------------


def make_splits(ids, seed: int, val_size: int, test_size: int) -> dict[str, list[str]]:
    """Deterministic, disjoint, exhaustive train/val/test split of ids:
    val_size and test_size ids held out, train the remainder."""
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate ids passed to make_splits")
    if min(val_size, test_size) < 0:
        raise ConfigError(f"split sizes must be >= 0, got val {val_size} and test {test_size}")
    if val_size + test_size > len(ids):
        raise ConfigError(
            f"split sizes request {val_size + test_size} ids but only {len(ids)} exist"
        )

    order = np.random.default_rng(seed).permutation(len(ids))
    shuffled = [ids[i] for i in order]
    train_size = len(ids) - val_size - test_size
    return {"train": sorted(shuffled[:train_size]),
            "val": sorted(shuffled[train_size:train_size + val_size]),
            "test": sorted(shuffled[train_size + val_size:])}


# -- synthetic world ---------------------------------------------------------


@dataclass(frozen=True)
class SyntheticWorld:
    """Generator parameters for correlated (image, sound, text) triples."""

    concepts: int
    seed: int
    image_noise: float = 0.05
    sound_noise: float = 0.05
    text_noise: float = 0.5
    words_per_concept: int = 50
    teacher_smoothing: float = 0.01
    output_dim: int = 64

    def __post_init__(self):
        require(self, self.concepts >= 2, "concepts", ">= 2")
        require(self, self.seed >= 0, "seed", ">= 0")
        for name in ("image_noise", "sound_noise"):
            require(self, getattr(self, name) >= 0, name, ">= 0")
        for name in ("text_noise", "teacher_smoothing"):  # probabilities
            require(self, 0 <= getattr(self, name) <= 1, name, "in [0, 1]")
        require(self, self.words_per_concept >= 1, "words_per_concept", ">= 1")
        require(self, self.output_dim >= self.concepts, "output_dim",
                f"at least concepts ({self.concepts})")


def _rng(world: SyntheticWorld, *key: int) -> np.random.Generator:
    return np.random.default_rng((world.seed, *key))


_IMG, _SND, _TXT, _VOCAB, _PROTO = 1, 2, 3, 4, 5


def _image_prototype(world: SyntheticWorld, concept: int) -> np.ndarray:
    """Three soft blobs at concept-keyed positions/colors on a gray field."""
    rng = _rng(world, _PROTO, _IMG, concept)
    yy, xx = np.mgrid[0:32, 0:32]
    canvas = np.full((3, 32, 32), 0.5)
    for _ in range(3):
        cy, cx = rng.uniform(4, 28, size=2)
        radius = rng.uniform(2.5, 6.0)
        color = rng.uniform(-0.9, 0.9, size=3)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius ** 2))
        canvas += color[:, None, None] * bump[None]
    return canvas


def _sound_prototype(world: SyntheticWorld, concept: int) -> np.ndarray:
    """Harmonic stack keyed by a concept fundamental, with a fixed envelope."""
    rng = _rng(world, _PROTO, _SND, concept)
    fundamentals = np.linspace(15.0, 110.0, world.concepts)
    f0 = fundamentals[concept]
    channels = np.arange(formats.SPECTROGRAM_CHANNELS, dtype=np.float64)[:, None]
    t = np.arange(formats.SPECTROGRAM_FRAMES, dtype=np.float64)[None, :]
    proto = np.zeros((formats.SPECTROGRAM_CHANNELS, formats.SPECTROGRAM_FRAMES))
    for m in (1, 2):
        center = m * f0
        width = 1.5 + 0.5 * m
        rate = rng.uniform(1.0, 4.0)
        phase = rng.uniform(0, 2 * np.pi)
        envelope = 0.6 + 0.4 * np.sin(2 * np.pi * rate * t / formats.SPECTROGRAM_FRAMES + phase)
        proto += (1.0 / m) * np.exp(-((channels - center) ** 2) / (2 * width ** 2)) * envelope
    return proto


def _concept_vocab(world: SyntheticWorld, concept: int) -> list[str]:
    return [f"w{concept:02d}x{j:02d}" for j in range(world.words_per_concept)]


def _canonical_sentence(world: SyntheticWorld, concept: int) -> list[str]:
    """Concept-keyed base sentence; per-sample text noise resamples positions."""
    rng = _rng(world, _PROTO, _TXT, concept)
    vocab = _concept_vocab(world, concept)
    n = int(rng.integers(8, 13))
    words = [vocab[int(rng.integers(len(vocab)))] for _ in range(n)]
    for pos in rng.choice(n, size=max(1, n // 4), replace=False):
        words[int(pos)] = FUNCTION_WORDS[int(rng.integers(len(FUNCTION_WORDS)))]
    return words


def build_embedding_table(world: SyntheticWorld) -> dict[str, np.ndarray]:
    """Unit-norm 300-d vectors for every concept word and function word.

    Values are materialized as float32 so the in-memory table matches the
    on-disk EMBT file bitwise.
    """
    rng = _rng(world, _VOCAB)
    table: dict[str, np.ndarray] = {}
    words = [w for k in range(world.concepts) for w in _concept_vocab(world, k)]
    words.extend(FUNCTION_WORDS)
    for word in words:
        vec = rng.standard_normal(formats.EMBEDDING_DIM)
        vec /= np.sqrt((vec * vec).sum())
        table[word] = vec.astype(np.float32)
    return table


def teacher_row(world: SyntheticWorld, concept: int) -> np.ndarray:
    """Smoothed one-hot: (1-eps) on the concept class plus eps/N everywhere."""
    eps = world.teacher_smoothing
    row = np.full(world.output_dim, eps / world.output_dim)
    row[concept] += 1.0 - eps
    return row


def raw_triples(world: SyntheticWorld,
                n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, list[str]]]:
    """(concept, raw image, raw spectrogram, sentence) for triple indices 0..n-1.

    Each triple is a pure function of (world, index): the in-memory generator
    and the dataset writer read the same values. A concept's prototypes are
    built once per call, on its first triple, and dropped after its last:
    a world with as many concepts as triples holds none past its triple.
    """
    prototypes: dict[int, tuple[np.ndarray, np.ndarray, list[str]]] = {}
    for index in range(n):
        concept = index % world.concepts
        if concept not in prototypes:
            prototypes[concept] = (_image_prototype(world, concept),
                                   _sound_prototype(world, concept),
                                   _canonical_sentence(world, concept))
        proto_img, proto_snd, canonical = prototypes[concept]
        if index + world.concepts >= n:  # the concept's last triple
            del prototypes[concept]
        img_rng = _rng(world, _IMG, index)
        raw_img = proto_img + world.image_noise * img_rng.standard_normal((3, 32, 32))
        snd_rng = _rng(world, _SND, index)
        raw_snd = (proto_snd +
                   world.sound_noise * snd_rng.standard_normal(
                       (formats.SPECTROGRAM_CHANNELS, formats.SPECTROGRAM_FRAMES))
                   ).astype(np.float32)
        txt_rng = _rng(world, _TXT, index)
        sentence = list(canonical)
        vocab = _concept_vocab(world, concept)
        for pos in range(len(sentence)):
            if txt_rng.random() < world.text_noise:
                if txt_rng.random() < 0.25:
                    sentence[pos] = FUNCTION_WORDS[int(txt_rng.integers(len(FUNCTION_WORDS)))]
                else:
                    sentence[pos] = vocab[int(txt_rng.integers(len(vocab)))]
        yield concept, raw_img, raw_snd, sentence


@dataclass
class Triple:
    index: int
    concept: int
    image: Sample
    sound: Sample
    text: Sample
    sentence: list[str]


@dataclass
class SyntheticTriples:
    """In-memory dataset: triples plus labels, teacher rows, and text assets."""

    world: SyntheticWorld
    triples: list[Triple]
    labels: dict[str, int]
    teacher: TeacherTargets
    embedding_table: dict[str, np.ndarray]
    stopwords: frozenset[str]


def triple_ids(index: int) -> dict[str, str]:
    tag = f"{index:05d}"
    return {"pair": tag, "image": f"img-{tag}", "sound": f"snd-{tag}", "text": f"txt-{tag}"}


def generate_synthetic(world: SyntheticWorld, n: int) -> SyntheticTriples:
    """n correlated triples with concept labels and smoothed teacher rows."""
    if n < 1:
        raise ConfigError(f"need at least one triple, got {n}")
    table = build_embedding_table(world)
    stopwords = frozenset(FUNCTION_WORDS)
    triples: list[Triple] = []
    labels: dict[str, int] = {}
    teacher_rows: dict[str, np.ndarray] = {}
    for i, (concept, raw_img, raw_snd, sentence) in enumerate(raw_triples(world, n)):
        ids = triple_ids(i)
        image = Sample("image", preprocess_image(raw_img), ids["image"])
        sound = Sample("sound", preprocess_spectrogram(raw_snd), ids["sound"])
        text = embed_text(sentence, table, stopwords, ids["text"])
        triples.append(Triple(i, concept, image, sound, text, sentence))
        for sid in (ids["image"], ids["sound"], ids["text"]):
            labels[sid] = concept
        teacher_rows[ids["image"]] = teacher_row(world, concept)
    return SyntheticTriples(world, triples, labels, TeacherTargets(teacher_rows),
                            table, stopwords)


# -- pairing and batching -----------------------------------------------------


@dataclass
class DatasetHandles:
    """Training view: synchronized pair pools plus optional teacher targets."""

    image_sound: list[tuple[Sample, Sample]]
    image_text: list[tuple[Sample, Sample]]
    teacher: TeacherTargets | None = None


def handles_from_triples(dataset: SyntheticTriples,
                         indices=None) -> DatasetHandles:
    keep = None if indices is None else set(indices)
    chosen = [t for t in dataset.triples if keep is None or t.index in keep]
    return DatasetHandles(
        image_sound=[(t.image, t.sound) for t in chosen],
        image_text=[(t.image, t.text) for t in chosen],
        teacher=dataset.teacher,
    )


def _epoch_chunks(pool_size: int, batch_size: int) -> list[tuple[int, int]]:
    """Chunk boundaries covering the pool; a trailing singleton merges into
    the previous chunk so every batch keeps >= 2 pairs."""
    bounds = list(range(0, pool_size, batch_size)) + [pool_size]
    chunks = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    if len(chunks) > 1 and chunks[-1][1] - chunks[-1][0] == 1:
        last = chunks.pop()
        prev = chunks.pop()
        chunks.append((prev[0], last[1]))
    return chunks


def _pool_batch(pairs, teacher, pair_type, batch_size, seed, step):
    type_code = PAIR_TYPES.index(pair_type)
    n = len(pairs)
    chunks = _epoch_chunks(n, batch_size)
    epoch, chunk_idx = divmod(step, len(chunks))
    perm = np.random.default_rng((seed, type_code, epoch)).permutation(n)
    lo, hi = chunks[chunk_idx]
    picked = [pairs[i] for i in perm[lo:hi]]
    anchors = [a for a, _ in picked]
    positives = [p for _, p in picked]
    rows = teacher.rows_for([a.id for a in anchors]) if teacher is not None else None
    return PairedBatch(pair_type, anchors, positives, rows)


def schedule_batch(handles: DatasetHandles, batch_size: int, seed: int,
                   iteration: int) -> PairedBatch:
    """Batch for a global iteration: strict alternation image+sound,
    image+text, each pool shuffled once per epoch by seed. Pure function of
    its arguments, which is what makes training resumable and bit-reproducible."""
    if batch_size < 2:
        raise ConfigError(f"batch size must be >= 2, got {batch_size}")
    if not handles.image_sound or not handles.image_text:
        raise ConfigError("both image+sound and image+text pools must be non-empty")
    smallest = min(len(handles.image_sound), len(handles.image_text))
    if batch_size > smallest:
        raise ConfigError(
            f"batch size {batch_size} exceeds smallest pair pool ({smallest})"
        )
    pair_type = PAIR_TYPES[iteration % 2]
    pool = handles.image_sound if pair_type == "image+sound" else handles.image_text
    return _pool_batch(pool, handles.teacher, pair_type, batch_size, seed, iteration // 2)


# -- on-disk datasets ----------------------------------------------------------


def write_dataset(world: SyntheticWorld, n: int, out_dir,
                  val_size: int = 0, test_size: int = 0) -> Path:
    """Write n triples in the declared file formats plus manifest, labels,
    teacher CSV, embedding table, and stop-word list. Returns the manifest path."""
    out = Path(out_dir)
    samples_dir = out / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)

    table = build_embedding_table(world)
    formats.save_embedding_table(out / "embeddings.embt", table)
    formats.save_stopwords(out / "stopwords.txt", FUNCTION_WORDS)

    pair_ids = [triple_ids(i)["pair"] for i in range(n)]
    splits = make_splits(pair_ids, world.seed, val_size, test_size)
    split_of = {pid: name for name, pids in splits.items() for pid in pids}

    rows = []
    labels: dict[str, int] = {}
    teacher_rows: dict[str, np.ndarray] = {}
    for i, (concept, raw_img, raw_snd, sentence) in enumerate(raw_triples(world, n)):
        ids = triple_ids(i)
        split = split_of[ids["pair"]]
        img_path = samples_dir / f"{ids['image']}.tnsr"
        snd_path = samples_dir / f"{ids['sound']}.spec"
        txt_path = samples_dir / f"{ids['text']}.txt"
        formats.save_tensor(img_path, raw_img)
        formats.save_spectrogram(snd_path, raw_snd)
        txt_path.write_text(" ".join(sentence) + "\n", encoding="utf-8")
        for modality, sid, path in (("image", ids["image"], img_path),
                                    ("sound", ids["sound"], snd_path),
                                    ("text", ids["text"], txt_path)):
            rows.append({"id": sid, "modality": modality,
                         "path": str(path.relative_to(out)),
                         "pair_id": ids["pair"], "split": split})
            labels[sid] = concept
        teacher_rows[ids["image"]] = teacher_row(world, concept)

    manifest_path = out / "manifest.csv"
    formats.save_manifest_csv(manifest_path, rows)
    formats.save_labels_csv(out / "labels.csv", labels)
    formats.save_teacher_csv(out / "teacher.csv", teacher_rows)
    return manifest_path


@dataclass
class LoadedDataset:
    """Dataset reconstructed from a manifest: samples, pairings, labels, teacher."""

    samples: dict[str, Sample]
    pairs: dict[str, dict[str, str]]  # pair_id -> modality -> sample id
    split_of: dict[str, str]          # pair_id -> split name
    labels: dict[str, int] | None
    teacher: TeacherTargets | None

    def pair_ids(self, split: str) -> list[str]:
        return sorted(p for p, s in self.split_of.items() if s == split)

    def triple_samples(self, split: str) -> list[dict[str, Sample]]:
        return [{m: self.samples[sid] for m, sid in self.pairs[p].items()}
                for p in self.pair_ids(split)]

    def handles(self, split: str = "train") -> DatasetHandles:
        trips = self.triple_samples(split)
        return DatasetHandles(
            image_sound=[(t["image"], t["sound"]) for t in trips],
            image_text=[(t["image"], t["text"]) for t in trips],
            teacher=self.teacher,
        )


def load_dataset(manifest_path) -> LoadedDataset:
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    rows = formats.load_manifest_csv(manifest_path)

    table = formats.load_embedding_table(root / "embeddings.embt")
    stopwords = formats.load_stopwords(root / "stopwords.txt")

    samples: dict[str, Sample] = {}
    pairs: dict[str, dict[str, str]] = {}
    split_of: dict[str, str] = {}
    for row in rows:
        sid, modality, path = row["id"], row["modality"], root / row["path"]
        if modality == "image":
            samples[sid] = load_image(path, sid)
        elif modality == "sound":
            samples[sid] = load_spectrogram(path, sid)
        elif modality == "text":
            samples[sid] = load_text(path, table, stopwords, sid)
        else:
            raise DataFormatError(f"manifest row {sid}: unknown modality {modality!r}")
        pairs.setdefault(row["pair_id"], {})[modality] = sid
        split_of[row["pair_id"]] = row["split"]

    labels_path = root / "labels.csv"
    labels = formats.load_labels_csv(labels_path) if labels_path.exists() else None
    teacher_path = root / "teacher.csv"
    teacher = TeacherTargets(formats.load_teacher_csv(teacher_path)) \
        if teacher_path.exists() else None
    return LoadedDataset(samples, pairs, split_of, labels, teacher)
