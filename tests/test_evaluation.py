"""Retrieval ranking, zero-shot transfer, ridge baseline, unit probing."""

import numpy as np
import pytest

from crossmodal import evaluation as ev
from crossmodal import networks as nets
from crossmodal.data import Sample
from crossmodal.errors import ConfigError, ContractError, DegenerateInputError

from conftest import make_tiny_spec


# -- brute-force rank oracle ----------------------------------------------------


def rank_oracle(queries, targets, pairs, standardize=True):
    """O(n^2) reference: sort candidates by (-cosine, id) and locate the pair."""
    qm = np.stack([queries[q] for q, _ in pairs])
    if standardize:
        qm = (qm - qm.mean(axis=0)) / (qm.std(axis=0) + 1e-12)
    ranks = []
    target_ids = [t for _, t in pairs]
    for i, (_, true_id) in enumerate(pairs):
        sims = []
        for tid in target_ids:
            t = targets[tid]
            q = qm[i]
            sims.append((-float(q @ t / (np.linalg.norm(q) * np.linalg.norm(t))), tid))
        sims.sort()
        ranks.append(1 + [tid for _, tid in sims].index(true_id))
    return np.array(ranks)


def _random_vectors(n, dim, seed, prefix):
    rng = np.random.default_rng(seed)
    return {f"{prefix}{i:04d}": rng.normal(size=dim) for i in range(n)}


def test_perfect_embeddings_rank_one():
    vecs = _random_vectors(40, 8, 0, "x")
    pairs = [(k, k) for k in vecs]
    res = ev.median_rank_retrieval(vecs, vecs, pairs, n_splits=2, split_size=20, seed=1)
    assert res.average_median_rank == 1.0


def test_median_rank_matches_brute_force_small():
    queries = _random_vectors(12, 5, 3, "q")
    targets = {f"q{i:04d}": v for i, v in
               enumerate(np.random.default_rng(4).normal(size=(12, 5)))}
    pairs = [(k, k) for k in queries]
    res = ev.median_rank_retrieval(queries, targets, pairs, 1, 12, seed=0)
    oracle = rank_oracle(queries, targets, [(k, k) for k in queries])
    # oracle iterates pairs in the same shuffled order used internally
    order = np.random.default_rng(0).permutation(12)
    shuffled = [pairs[i] for i in order]
    oracle = rank_oracle(queries, targets, shuffled)
    assert np.array_equal(res.ranks[0], oracle)
    assert res.per_split_medians[0] == float(np.median(oracle))


@pytest.mark.parametrize("n", [50, 200])
def test_median_rank_equals_oracle_random_instances(n):
    rng = np.random.default_rng(n)
    queries = {f"s{i:04d}": rng.normal(size=6) for i in range(n)}
    targets = {f"s{i:04d}": rng.normal(size=6) for i in range(n)}
    pairs = [(k, k) for k in queries]
    res = ev.median_rank_retrieval(queries, targets, pairs, 1, n, seed=9)
    order = np.random.default_rng(9).permutation(n)
    oracle = rank_oracle(queries, targets, [pairs[i] for i in order])
    assert np.array_equal(res.ranks[0], oracle)


def test_random_embeddings_median_near_half():
    queries = _random_vectors(600, 16, 10, "a")
    targets = _random_vectors(600, 16, 11, "a")
    pairs = [(k, k) for k in queries]
    res = ev.median_rank_retrieval(queries, targets, pairs, 2, 300, seed=2)
    # chance is (300+1)/2; generous slack for a 2-split estimate
    assert 110 < res.average_median_rank < 190


def test_rank_invariant_under_per_vector_rescaling():
    rng = np.random.default_rng(5)
    queries = {f"i{i}": rng.normal(size=7) for i in range(30)}
    targets = {f"i{i}": rng.normal(size=7) for i in range(30)}
    pairs = [(k, k) for k in queries]
    base = ev.median_rank_retrieval(queries, targets, pairs, 1, 30, seed=0)
    scaled_t = {k: v * (2.0 ** rng.integers(-3, 4)) for k, v in targets.items()}
    scaled = ev.median_rank_retrieval(queries, scaled_t, pairs, 1, 30, seed=0)
    assert np.array_equal(base.ranks[0], scaled.ranks[0])


def test_zero_norm_target_names_direction_and_split():
    queries = _random_vectors(8, 4, 0, "x")
    targets = {k: np.zeros(4) for k in queries}
    pairs = [(k, k) for k in queries]
    with pytest.raises(DegenerateInputError, match=r"image->sound, split 0"):
        ev.median_rank_retrieval(queries, targets, pairs, 2, 4, seed=0,
                                 direction="image->sound")


def test_rank_ties_broken_by_id_order():
    # row 0: every candidate ties at similarity 1; true target is column 0
    # with id "b", and only "a" sorts before it, so its rank is 2
    sims = np.array([
        [1.0, 1.0, 1.0],
        [0.2, 0.9, 0.5],
        [0.2, 0.9, 0.3],
    ])
    ranks = ev._ranks_with_id_ties(sims, ["b", "a", "c"])
    assert ranks[0] == 2
    assert ranks[1] == 1   # true sim 0.9 is the row maximum
    assert ranks[2] == 2   # 0.9 beats the true 0.3; 0.2 does not


def test_split_oversubscription_rejected():
    vecs = _random_vectors(10, 4, 0, "x")
    pairs = [(k, k) for k in vecs]
    with pytest.raises(ConfigError):
        ev.median_rank_retrieval(vecs, vecs, pairs, 2, 8, seed=0)


def test_embed_all_standardization_moments(tiny_spec_params):
    spec, params = tiny_spec_params
    rng = np.random.default_rng(0)
    samples = [Sample("sound", rng.normal(size=spec.sound_input), f"s{i}")
               for i in range(12)]
    vecs = ev.embed_all(params, samples, "shared2")
    matrix = ev.standardize_features(np.stack(list(vecs.values())))
    assert np.abs(matrix.mean(axis=0)).max() < 1e-10
    active = matrix.std(axis=0) > 0
    assert np.abs(matrix.std(axis=0)[active] - 1.0).max() < 1e-6
    assert matrix.shape[1] == spec.shared_widths[-1]


def test_embed_taps_one_forward_per_batch_for_every_tap(tiny_spec_params, monkeypatch):
    spec, params = tiny_spec_params
    rng = np.random.default_rng(2)
    n_sound = ev.EMBED_BATCH + 6
    samples = ([Sample("sound", rng.normal(size=spec.sound_input), f"s{i:03d}")
                for i in range(n_sound)]
               + [Sample("text", rng.normal(size=spec.text_input), f"t{i}") for i in range(3)])
    calls = []

    def counted(p, batch, modality):
        # a graph-free view: the same arrays, with nothing to differentiate
        assert all(t.data is params[n].data and not t.requires_grad for n, t in p.items())
        calls.append((modality, len(batch)))
        return nets.forward_batch(p, batch, modality)

    monkeypatch.setattr(ev, "forward_batch", counted)
    taps = ev.embed_taps(params, samples)
    assert calls == [("sound", ev.EMBED_BATCH), ("sound", 6), ("text", 3)]
    assert set(taps) == set(nets.TAP_NAMES)
    sounds = samples[:n_sound]
    for lo in range(0, n_sound, ev.EMBED_BATCH):
        chunk = sounds[lo:lo + ev.EMBED_BATCH]
        acts = nets.forward_batch(params, np.stack([s.payload for s in chunk]), "sound")
        for tap in nets.TAP_NAMES:
            assert np.array_equal(np.stack([taps[tap][s.id] for s in chunk]), acts[tap].data)
    for tap in nets.TAP_NAMES:
        vecs = ev.embed_all(params, samples, tap)
        assert all(np.array_equal(vecs[s.id], taps[tap][s.id]) for s in samples)
    with pytest.raises(ConfigError, match="unknown tap"):
        ev.embed_all(params, samples, "conv1")


def test_embed_all_identical_samples_identical_vectors(tiny_spec_params):
    spec, params = tiny_spec_params
    x = np.random.default_rng(1).normal(size=spec.text_input)
    samples = [Sample("text", x, "a"), Sample("text", x.copy(), "b")]
    vecs = ev.embed_all(params, samples, "shared2")
    assert np.array_equal(vecs["a"], vecs["b"])


# -- ridge baseline ---------------------------------------------------------------


def test_ridge_recovers_exact_linear_map():
    rng = np.random.default_rng(0)
    source = rng.normal(size=(50, 6))
    true_w = rng.normal(size=(6, 4))
    target = source @ true_w
    w = ev.linear_regression_baseline(source, target, ridge_lambda=1e-8)
    assert np.abs(source @ w - target).max() < 1e-6


def test_ridge_shrinks_monotonically():
    rng = np.random.default_rng(1)
    source = rng.normal(size=(30, 5))
    target = rng.normal(size=(30, 3))
    norms = [np.linalg.norm(ev.linear_regression_baseline(source, target, lam))
             for lam in (1e-3, 1e-1, 1e1, 1e3)]
    assert all(a > b for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("n, d", [(3, 5), (3, 3), (5, 3)], ids=["n_lt_d", "n_eq_d", "n_gt_d"])
def test_ridge_matches_normal_equations_oracle_3x3(n, d):
    # the baseline solves the n x n dual; the oracle, the d x d normal equations
    rng = np.random.default_rng(2)
    source = rng.normal(size=(n, d))
    target = rng.normal(size=(n, 3))
    lam = 0.37
    w = ev.linear_regression_baseline(source, target, lam)
    oracle = np.linalg.inv(source.T @ source + lam * np.eye(d)) @ source.T @ target
    assert np.abs(w - oracle).max() < 1e-10


def test_ridge_rejects_nonpositive_lambda():
    with pytest.raises(ConfigError):
        ev.linear_regression_baseline(np.eye(3), np.eye(3), 0.0)
    with pytest.raises(ConfigError):
        ev.linear_regression_baseline(np.eye(3), np.eye(3), -1.0)


# -- zero-shot transfer --------------------------------------------------------------


def hinge_ova_oracle(features, labels, n_classes, c_value, iterations):
    """Feature-space reference: one-vs-all hinge + L2 by full-batch Pegasos
    subgradient descent on (K, D) weights, one C at a time."""
    n = features.shape[0]
    lam = 1.0 / (c_value * n)
    targets = np.where(labels[:, None] == np.arange(n_classes)[None, :], 1.0, -1.0)
    weights = np.zeros((n_classes, features.shape[1]))
    for t in range(1, iterations + 1):
        margins = features @ weights.T
        violating = (targets * margins) < 1.0
        grad = lam * weights - ((targets * violating).T @ features) / n
        weights -= (1.0 / (lam * t)) * grad
    return weights


def _labelled_features(n, d, n_classes, seed):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    protos = rng.normal(size=(n_classes, d))
    features = protos[labels] + 2.0 * rng.normal(size=(n, d))
    return np.hstack([features, np.ones((n, 1))]), labels


@pytest.mark.parametrize("n, d", [(30, 64), (120, 16)], ids=["n_lt_D", "n_gt_D"])
def test_hinge_gram_form_matches_feature_space_oracle(n, d):
    features, labels = _labelled_features(n, d, 4, seed=n)
    grid = (0.01, 0.1, 1.0, 10.0)
    weights = ev._hinge_ova_fit(features, labels, 4, grid, 300)
    assert weights.shape == (len(grid), 4, d + 1)
    for w, c_value in zip(weights, grid):
        oracle = hinge_ova_oracle(features, labels, 4, c_value, 300)
        np.testing.assert_allclose(w, oracle, rtol=1e-9, atol=0)


def test_hinge_grid_fit_equals_single_c_fits_bitwise():
    features, labels = _labelled_features(40, 20, 3, seed=6)
    grid = (0.01, 0.1, 1.0, 10.0)
    weights = ev._hinge_ova_fit(features, labels, 3, grid, 100)
    for w, c_value in zip(weights, grid):
        assert np.array_equal(w, ev._hinge_ova_fit(features, labels, 3, (c_value,), 100)[0])


def _separable_samples(spec, n, concepts, seed, modality="sound"):
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(concepts, *spec.input_shape(modality))) * 2.0
    samples, labels = [], {}
    for i in range(n):
        c = i % concepts
        s = Sample(modality, protos[c] + 0.05 * rng.normal(size=spec.input_shape(modality)),
                   f"{modality}-{seed}-{i:04d}")
        samples.append(s)
        labels[s.id] = c
    return samples, labels


def test_zero_shot_same_modality_separable_is_perfect(tiny_spec_params):
    spec, params = tiny_spec_params
    train_s, labels = _separable_samples(spec, 40, 4, seed=0)
    test_s, _ = _separable_samples(spec, 20, 4, seed=0)
    train = ev.embed_all(params, train_s, "bottleneck")
    test = ev.embed_all(params, test_s, "bottleneck")
    [res] = ev.zero_shot_transfer("sound", train, {"sound": test}, labels, 4, seed=0)
    assert res.accuracy == 1.0
    assert res.train_modality == res.test_modality == "sound"


def test_zero_shot_scores_every_test_modality_with_one_fit(tiny_spec_params, monkeypatch):
    spec, params = tiny_spec_params
    train_s, labels = _separable_samples(spec, 30, 3, seed=4)
    test_s, test_l = _separable_samples(spec, 15, 3, seed=5, modality="text")
    train = ev.embed_all(params, train_s, "shared1")
    test = ev.embed_all(params, test_s, "shared1")
    fits = []
    fit = ev._hinge_ova_fit

    def counted(*args):
        fits.append(args)
        return fit(*args)

    monkeypatch.setattr(ev, "_hinge_ova_fit", counted)
    both = ev.zero_shot_transfer("sound", train, {"text": test, "sound": train},
                                 {**labels, **test_l}, 3, c_grid=(0.1, 1.0), iterations=50)
    # one fit per fold for the whole grid, then one with the chosen C
    assert len(fits) == 2 + 1
    assert [len(f[3]) for f in fits] == [2, 2, 1]
    [alone] = ev.zero_shot_transfer("sound", train, {"text": test}, {**labels, **test_l}, 3,
                                    c_grid=(0.1, 1.0), iterations=50)
    assert [(r.train_modality, r.test_modality) for r in both] == [("sound", "text"),
                                                                    ("sound", "sound")]
    assert both[0] == alone and both[1].best_c == alone.best_c


def test_zero_shot_missing_class_rejected(tiny_spec_params):
    spec, params = tiny_spec_params
    train_s, train_l = _separable_samples(spec, 20, 2, seed=1)
    train = ev.embed_all(params, train_s)
    with pytest.raises(ConfigError):
        ev.zero_shot_transfer("sound", train, {"sound": train}, train_l, 5)


def test_zero_shot_invariant_to_global_power_of_two_scaling(tiny_spec_params):
    # standardization with train statistics removes any global embedding scale;
    # power-of-two scaling is exact in floating point, so decisions match bitwise
    spec, params = tiny_spec_params
    train_s, train_l = _separable_samples(spec, 30, 3, seed=2)
    test_s, test_l = _separable_samples(spec, 15, 3, seed=3)

    vec_train = ev.embed_all(params, train_s, "shared2")
    vec_test = ev.embed_all(params, test_s, "shared2")

    def predictions(scale):
        x_train = np.stack([vec_train[s.id] for s in train_s]) * scale
        y_train = np.array([train_l[s.id] for s in train_s])
        mean, std = x_train.mean(axis=0), x_train.std(axis=0) + 1e-12
        z = np.hstack([(x_train - mean) / std, np.ones((len(x_train), 1))])
        w = ev._hinge_ova_fit(z, y_train, 3, (1.0,), 200)[0]
        x_test = np.stack([vec_test[s.id] for s in test_s]) * scale
        zt = np.hstack([(x_test - mean) / std, np.ones((len(x_test), 1))])
        return np.argmax(zt @ w.T, axis=1)

    assert np.array_equal(predictions(1.0), predictions(4.0))


# -- probing ------------------------------------------------------------------------


def test_probe_planted_unit(tiny_spec_params):
    spec, params = tiny_spec_params
    rng = np.random.default_rng(4)
    samples = [Sample("sound", rng.normal(size=spec.sound_input), f"s{i:03d}")
               for i in range(10)]
    # wire output unit 0 of the last shared layer to respond 1 on sample s003
    # and 0 on the rest (least-squares interpolation of a one-hot response)
    vecs = ev.embed_all(params, samples, "shared1")
    matrix = np.stack([vecs[s.id] for s in samples])
    onehot = np.array([1.0 if s.id == "s003" else 0.0 for s in samples])
    w0, *_ = np.linalg.lstsq(matrix, onehot, rcond=None)
    params["shared.fc2.weight"].data[:, 0] = w0
    listings = ev.probe_units({"sound": ev.embed_all(params, samples)}, k=3, units=[0])
    top_ids = [sid for sid, _ in listings[0]["sound"]]
    assert top_ids[0] == "s003"


def test_probe_k_equals_dataset_size_returns_all_sorted(tiny_spec_params):
    spec, params = tiny_spec_params
    rng = np.random.default_rng(5)
    samples = [Sample("text", rng.normal(size=spec.text_input), f"t{i:03d}")
               for i in range(8)]
    listings = ev.probe_units({"text": ev.embed_all(params, samples)}, k=8, units=[2])
    entries = listings[2]["text"]
    assert len(entries) == 8
    acts = [a for _, a in entries]
    assert acts == sorted(acts, reverse=True)
    assert sorted(sid for sid, _ in entries) == [f"t{i:03d}" for i in range(8)]


def test_probe_deterministic(tiny_spec_params):
    spec, params = tiny_spec_params
    rng = np.random.default_rng(6)
    samples = [Sample("image", rng.normal(size=spec.vision_input), f"i{i:03d}")
               for i in range(6)]
    a = ev.probe_units({"image": ev.embed_all(params, samples)}, k=4)
    b = ev.probe_units({"image": ev.embed_all(params, samples)}, k=4)
    assert a == b


def test_probe_ties_broken_by_id(tiny_spec_params):
    spec, params = tiny_spec_params
    x = np.random.default_rng(7).normal(size=spec.sound_input)
    samples = [Sample("sound", x.copy(), name) for name in ("zz", "aa", "mm")]
    listings = ev.probe_units({"sound": ev.embed_all(params, samples)}, k=3, units=[1])
    assert [sid for sid, _ in listings[1]["sound"]] == ["aa", "mm", "zz"]


# -- same-modality sanity floor --------------------------------------------------


def test_same_modality_retrieval_rank_one(tiny_spec_params):
    spec, params = tiny_spec_params
    rng = np.random.default_rng(8)
    samples = [Sample("sound", rng.normal(size=spec.sound_input), f"s{i:03d}")
               for i in range(20)]
    vecs = ev.embed_all(params, samples, "shared2")
    pairs = [(s.id, s.id) for s in samples]
    res = ev.median_rank_retrieval(vecs, vecs, pairs, 1, 20, seed=0)
    assert res.average_median_rank == 1.0
