"""Evaluation: cross-modal retrieval (the sound<->text bridge is retrieval
between two modalities training never paired), zero-shot classifier
transfer, a ridge-regression baseline, and hidden-unit probing.

Embed once, evaluate many: ``embed_taps`` runs one forward per batch and
keeps every tap, so an eval embeds each (split, modality) once and every
task reads vectors from that table. Zero-shot transfer, per training
modality, fits each cross-validation fold once for the whole C grid, fits
the chosen C once more on the full training set, and scores every test
modality with that one fit.

A desk eval fits on fewer samples than features, so both fits run in
sample space, on n x n matrices: the one-vs-all SVMs on the Gram matrix,
every C of the grid in one loop, and the ridge baseline through its dual.
Their weights equal the feature-space forms to within rounding, not bit for
bit.

Retrieval reports the average median rank over seeded splits: queries are
standardized per dimension (statistics from the query split only), candidates
ranked by cosine similarity, ties broken by sample id so every number is
exactly reproducible.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .data import Sample
from .errors import ConfigError, ContractError, DegenerateInputError, require
from .networks import ModelParams, TAP_NAMES, forward_batch

EMBED_BATCH = 64
DEFAULT_LAYER = "shared2"
DEFAULT_C_GRID = (0.01, 0.1, 1.0, 10.0)

# Published full-scale results for these tasks, kept as reference rows in
# reports. A year of audio and millions of sentences went into them; desk
# runs are not expected to reproduce them.
FULL_SCALE_REFERENCE = {
    "retrieval_average_median_rank": {
        "random": {"image->sound": 500.0, "sound->image": 500.0,
                   "image->text": 500.0, "text->image": 500.0},
        "linear_regression": {"image->sound": 345.8, "sound->image": 319.8,
                              "image->text": 14.2, "text->image": 18.0},
        "aligned_model_transfer": {"image->sound": 144.6, "sound->image": 143.8,
                                   "image->text": 8.5, "text->image": 10.8},
        "aligned_ranking": {"image->sound": 49.0, "sound->image": 47.8,
                            "image->text": 8.6, "text->image": 8.2},
        "aligned_both": {"image->sound": 47.5, "sound->image": 49.5,
                         "image->text": 5.8, "text->image": 6.0},
    },
    "bridge_average_median_rank": {
        "random": {"text->sound": 500.0, "sound->text": 500.0},
        "linear_regression": {"text->sound": 315.0, "sound->text": 309.0},
        "aligned_model_transfer": {"text->sound": 140.5, "sound->text": 142.0},
        "aligned_ranking": {"text->sound": 190.0, "sound->text": 189.5},
        "aligned_both": {"text->sound": 135.0, "sound->text": 140.5},
    },
    "zero_shot_accuracy_percent": {
        "chance_42_categories": 2.3,
        "aligned_both": {"image->image": 32.6, "image->sound": 5.8, "image->text": 33.8,
                         "sound->image": 12.8, "sound->sound": 9.0, "sound->text": 15.2,
                         "text->image": 22.6, "text->sound": 6.2, "text->text": 40.3},
    },
}


@dataclass(frozen=True)
class EvalConfig:
    """The settings every eval task reads: the tap, the retrieval splits, the
    zero-shot classifiers, the ridge baseline and the unit probe."""

    seed: int
    layer: str = DEFAULT_LAYER
    n_splits: int = 1
    split_size: int | None = None  # None: every held-out pair
    probe_k: int = 5
    probe_units: int | None = None  # None: every unit of the tap
    svm_iterations: int = 300
    svm_c_grid: tuple[float, ...] = DEFAULT_C_GRID
    ridge_lambda: float = 1e-3

    def __post_init__(self):
        require(self, self.seed >= 0, "seed", ">= 0")
        require(self, self.layer in TAP_NAMES, "layer", f"a tap among {TAP_NAMES}")
        for name in ("n_splits", "probe_k", "svm_iterations"):
            require(self, getattr(self, name) >= 1, name, ">= 1")
        require(self, self.split_size is None or self.split_size >= 2, "split_size",
                ">= 2 or None")
        require(self, self.probe_units is None or self.probe_units >= 1, "probe_units",
                ">= 1 or None")
        require(self, len(self.svm_c_grid) > 0 and min(self.svm_c_grid) > 0, "svm_c_grid",
                "non-empty and positive")
        require(self, self.ridge_lambda > 0, "ridge_lambda", "> 0")


def embed_taps(params: ModelParams, samples: list[Sample]) -> dict[str, dict[str, np.ndarray]]:
    """One representation vector per sample at every tap: {tap: {id: vector}}.

    Samples are grouped by modality in their given order and embedded
    EMBED_BATCH at a time, one forward per batch. The forward runs on a
    graph-free view of the parameters, so no intermediate outlives its use.
    """
    frozen = ModelParams(params.spec, {n: Tensor(t.data) for n, t in params.items()})
    taps: dict[str, dict[str, np.ndarray]] = {tap: {} for tap in TAP_NAMES}
    by_modality: dict[str, list[Sample]] = {}
    for s in samples:
        by_modality.setdefault(s.modality, []).append(s)
    for modality, group in by_modality.items():
        for lo in range(0, len(group), EMBED_BATCH):
            chunk = group[lo:lo + EMBED_BATCH]
            arr = np.stack([s.payload for s in chunk], dtype=np.float64)
            for tap, acts in forward_batch(frozen, arr, modality).items():
                taps[tap].update(zip((s.id for s in chunk), acts.data))
    return taps


def embed_all(params: ModelParams, samples: list[Sample],
              layer: str = DEFAULT_LAYER) -> dict[str, np.ndarray]:
    """One representation vector per sample at one tap, keyed by id."""
    if layer not in TAP_NAMES:
        raise ConfigError(f"unknown tap {layer!r}; valid taps are {TAP_NAMES}")
    return embed_taps(params, samples)[layer]


def standardize_features(matrix: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per dimension (guarded for constant dims)."""
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    return (matrix - mean) / (std + 1e-12)


def require_nonzero_rows(vectors: dict[str, np.ndarray], tap: str, split: str) -> None:
    """Raise naming the first sample whose vector has zero norm: a cosine
    ranking cannot score it (a dead row, every unit of the tap silent)."""
    for sid, vec in vectors.items():
        if (vec * vec).sum() == 0:
            raise DegenerateInputError(
                f"zero-norm embedding row for sample {sid!r} at tap {tap!r}, split {split!r}")


def _cosine_matrix(queries: np.ndarray, targets: np.ndarray, where: str) -> np.ndarray:
    qn = np.sqrt((queries * queries).sum(axis=1))
    tn = np.sqrt((targets * targets).sum(axis=1))
    if (qn == 0).any() or (tn == 0).any():
        raise DegenerateInputError(f"zero-norm embedding row in retrieval {where}")
    return (queries / qn[:, None]) @ (targets / tn[:, None]).T


def _ranks_with_id_ties(sims: np.ndarray, target_ids: list[str]) -> np.ndarray:
    """1-based rank of the true pair (diagonal), ties broken by target id."""
    n = sims.shape[0]
    id_order = np.empty(n, dtype=np.intp)
    id_order[np.argsort(np.array(target_ids))] = np.arange(n)
    true_sims = np.diag(sims)
    better = (sims > true_sims[:, None]).sum(axis=1)
    tied = (sims == true_sims[:, None]) & (id_order[None, :] < id_order[np.arange(n)][:, None])
    return 1 + better + tied.sum(axis=1)


@dataclass
class RetrievalResult:
    direction: str
    per_split_medians: list[float]
    average_median_rank: float
    split_size: int
    ranks: list[np.ndarray] = field(default_factory=list, repr=False)


def median_rank_retrieval(queries: dict[str, np.ndarray], targets: dict[str, np.ndarray],
                          pairs: list[tuple[str, str]], n_splits: int, split_size: int,
                          seed: int, direction: str = "") -> RetrievalResult:
    """Average median rank over n_splits disjoint splits of split_size pairs.

    For each query the candidates are that split's target vectors; the rank of
    the true counterpart is 1-based and the per-split statistic is the median.
    """
    if n_splits < 1 or split_size < 2:
        raise ConfigError("need n_splits >= 1 and split_size >= 2")
    if n_splits * split_size > len(pairs):
        raise ConfigError(
            f"{n_splits} splits of {split_size} need {n_splits * split_size} pairs, "
            f"only {len(pairs)} available"
        )
    for qid, tid in pairs:
        if qid not in queries:
            raise ConfigError(f"query vector missing for {qid}")
        if tid not in targets:
            raise ConfigError(f"target vector missing for {tid}")

    order = np.random.default_rng(seed).permutation(len(pairs))
    medians: list[float] = []
    all_ranks: list[np.ndarray] = []
    for s in range(n_splits):
        chunk = [pairs[i] for i in order[s * split_size:(s + 1) * split_size]]
        q = standardize_features(np.stack([queries[qid] for qid, _ in chunk]))
        t = np.stack([targets[tid] for _, tid in chunk])
        sims = _cosine_matrix(q, t, f"{direction or '(unnamed)'}, split {s}")
        ranks = _ranks_with_id_ties(sims, [tid for _, tid in chunk])
        medians.append(float(np.median(ranks)))
        all_ranks.append(ranks)
    return RetrievalResult(direction, medians, float(np.mean(medians)), split_size, all_ranks)


# -- zero-shot classifier transfer ---------------------------------------------


def _hinge_ova_fit(features: np.ndarray, labels: np.ndarray, n_classes: int,
                   c_grid, iterations: int) -> np.ndarray:
    """One-vs-all linear hinge + L2 for every C of c_grid at once,
    deterministic full-batch subgradient descent (Pegasos 1/(lambda t) step
    sizes, lambda = 1/(C n)). Returns (G, K, D) weights, one (K, D) block per C.

    The fit runs in sample space, Pegasos's kernel form (Shalev-Shwartz et
    al., ICML 2007): the weights stay in the span of the samples, w = alpha @
    features. After step t, alpha is C/t times the running sum of the
    targets y at the steps where y times the margin (alpha @ gram) was below
    1, so each step costs (G, K, n) x (n, n) whatever the feature width D. The weights
    equal the feature-space iteration to within rounding, not bit for bit.
    """
    c_values = np.asarray(c_grid, dtype=np.float64)[:, None, None]
    targets = np.where(labels[None, :] == np.arange(n_classes)[:, None], 1.0, -1.0)
    gram = features @ features.T
    # Integer-valued, so the running sum is exact.
    counts = np.zeros((len(c_values), n_classes, features.shape[0]))
    alpha = np.zeros_like(counts)
    for t in range(1, iterations + 1):
        counts += targets * (targets * (alpha @ gram) < 1.0)
        alpha = (c_values / t) * counts
    return alpha @ features


@dataclass
class ZeroShotResult:
    train_modality: str
    test_modality: str
    accuracy: float
    best_c: float


def zero_shot_transfer(train_modality: str, train: dict[str, np.ndarray],
                       tests: dict[str, dict[str, np.ndarray]], labels: dict[str, int],
                       n_classes: int, c_grid=DEFAULT_C_GRID, seed: int = 0,
                       iterations: int = 300) -> list[ZeroShotResult]:
    """Fit one-vs-all linear classifiers on one modality's representations and
    score them on each test modality's, in the order of ``tests``. C is chosen
    by two-fold cross validation on the training set, whose folds follow the
    order of ``train``: each fold is fitted once for the whole grid, and the
    first C with the best mean fold accuracy is refitted on the full set.
    Features are standardized with training statistics only."""
    y_train = np.array([labels[i] for i in train])
    present = set(int(v) for v in y_train)
    missing = sorted(set(range(n_classes)) - present)
    if missing:
        raise ConfigError(f"classes missing from training set: {missing}")

    x_train = np.stack(list(train.values()))
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0) + 1e-12
    z_train = np.hstack([(x_train - mean) / std, np.ones((len(x_train), 1))])

    order = np.random.default_rng(seed).permutation(len(z_train))
    half = len(z_train) // 2
    folds = (order[:half], order[half:])
    accs = []
    for fit_idx, val_idx in ((folds[0], folds[1]), (folds[1], folds[0])):
        w = _hinge_ova_fit(z_train[fit_idx], y_train[fit_idx], n_classes, c_grid, iterations)
        pred = np.argmax(z_train[val_idx] @ w.transpose(0, 2, 1), axis=2)
        accs.append((pred == y_train[val_idx]).mean(axis=1))
    best_c = c_grid[int(np.argmax((accs[0] + accs[1]) / 2))]

    weights = _hinge_ova_fit(z_train, y_train, n_classes, (best_c,), iterations)[0]
    results = []
    for test_modality, test in tests.items():
        x_test = np.stack(list(test.values()))
        z_test = np.hstack([(x_test - mean) / std, np.ones((len(x_test), 1))])
        pred = np.argmax(z_test @ weights.T, axis=1)
        y_test = np.array([labels[i] for i in test])
        accuracy = float((pred == y_test).mean())
        results.append(ZeroShotResult(train_modality, test_modality, accuracy, best_c))
    return results


# -- linear regression baseline --------------------------------------------------


def linear_regression_baseline(source: np.ndarray, target: np.ndarray,
                               ridge_lambda: float = 1e-3) -> np.ndarray:
    """Closed-form ridge map W minimizing ||S W - T||^2 + lambda ||W||^2.

    Solved in its n x n dual (Saunders, Gammerman & Vovk, ICML 1998),
    W = S^T (S S^T + lambda I)^-1 T, so the cost follows the number of
    training pairs n, not the source width. W equals the d x d normal
    equations' solution to within rounding, not bit for bit.
    """
    if ridge_lambda <= 0:
        raise ConfigError(f"ridge lambda must be positive, got {ridge_lambda}")
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.ndim != 2 or target.ndim != 2 or source.shape[0] != target.shape[0]:
        raise ContractError(
            f"paired feature matrices required, got {source.shape} and {target.shape}"
        )
    gram = source @ source.T + ridge_lambda * np.eye(source.shape[0])
    return source.T @ np.linalg.solve(gram, target)


def baseline_retrieval(train_source: dict[str, np.ndarray], train_target: dict[str, np.ndarray],
                       train_pairs, test_source: dict[str, np.ndarray],
                       test_target: dict[str, np.ndarray], test_pairs,
                       n_splits: int, split_size: int, seed: int,
                       ridge_lambda: float = 1e-3, direction: str = "") -> RetrievalResult:
    """Ridge-map source features into the target (vision) space, then retrieve
    there by cosine similarity."""
    s = np.stack([train_source[a] for a, _ in train_pairs])
    t = np.stack([train_target[b] for _, b in train_pairs])
    w = linear_regression_baseline(s, t, ridge_lambda)
    regressed = {qid: test_source[qid] @ w for qid, _ in test_pairs}
    return median_rank_retrieval(regressed, test_target, test_pairs,
                                 n_splits, split_size, seed, direction)


# -- hidden-unit probing ----------------------------------------------------------


def probe_units(vectors: dict[str, dict[str, np.ndarray]], k: int = 5,
                units=None) -> dict[int, dict[str, list[tuple[str, float]]]]:
    """Per hidden unit, the top-k activating sample ids for each modality,
    given {modality: {id: vector}}.

    Ordering is by activation descending, ties by sample id; listings are
    deterministic across runs.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    by_modality: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for modality in sorted(vectors):
        ids = np.array(sorted(vectors[modality]))
        acts = np.stack([vectors[modality][i] for i in ids])
        by_modality[modality] = (ids, acts)

    width = next(iter(by_modality.values()))[1].shape[1]
    chosen = range(width) if units is None else units
    listings: dict[int, dict[str, list[tuple[str, float]]]] = {}
    for unit in chosen:
        per_mod: dict[str, list[tuple[str, float]]] = {}
        for modality, (ids, acts) in by_modality.items():
            # ids are pre-sorted, so a stable sort on -activation keeps id order on ties
            top = np.argsort(-acts[:, unit], kind="stable")[:k]
            per_mod[modality] = [(str(ids[i]), float(acts[i, unit])) for i in top]
        listings[unit] = per_mod
    return listings


# -- report files ------------------------------------------------------------------


def write_ranks_csv(path, results: list[RetrievalResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["direction", "split", "split_size", "median_rank"])
        for res in results:
            for i, median in enumerate(res.per_split_medians):
                writer.writerow([res.direction, i, res.split_size, repr(median)])
            writer.writerow([res.direction, "average", res.split_size,
                             repr(res.average_median_rank)])


def write_accuracies_csv(path, results: list[ZeroShotResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["train_modality", "test_modality", "accuracy", "best_c"])
        for res in results:
            writer.writerow([res.train_modality, res.test_modality,
                             repr(res.accuracy), repr(res.best_c)])


def write_probe_csv(path, listings) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "modality", "rank", "sample_id", "activation"])
        for unit in sorted(listings):
            for modality in sorted(listings[unit]):
                for rank, (sample_id, act) in enumerate(listings[unit][modality], start=1):
                    writer.writerow([unit, modality, rank, sample_id, repr(act)])


def write_summary_json(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
