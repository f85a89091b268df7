"""Loss oracles: brute-force KL and exhaustive pairwise hinge, plus the
combined objective's structure and gradients."""

import numpy as np
import pytest

from crossmodal import autodiff as ad
from crossmodal import networks as nets
from crossmodal.autodiff import Tensor
from crossmodal.data import PairedBatch, Sample
from crossmodal.errors import ConfigError, ContractError, NumericError
from crossmodal.losses import (
    LossConfig,
    combined_loss,
    kl_transfer_loss,
    ranking_loss,
)

from conftest import make_tiny_spec


# -- independent oracles ------------------------------------------------------


def kl_oracle(teacher, student):
    """Direct summation: mean over rows of sum_j P log(P / max(Q, 1e-12))."""
    total = 0.0
    for p_row, q_row in zip(teacher, student):
        for p, q in zip(p_row, q_row):
            if p > 0:
                total += p * np.log(p / max(q, 1e-12))
    return total / len(teacher)


def cosine_oracle(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def ranking_oracle(anchors, positives, margin):
    """Exhaustive loop over all (i, j != i) pairs, plain dot/norm cosine."""
    n = len(anchors)
    terms = []
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            pos = cosine_oracle(anchors[i], positives[i])
            neg = cosine_oracle(anchors[i], positives[j])
            terms.append(max(0.0, margin - pos + neg))
    return float(np.mean(terms))


# -- KL transfer loss -----------------------------------------------------------


def test_kl_identical_distributions_is_zero():
    p = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    assert abs(kl_transfer_loss(p, Tensor(p)).item()) < 1e-10


def test_kl_ln2_fixture():
    out = kl_transfer_loss(np.array([[1.0, 0.0]]), Tensor([[0.5, 0.5]])).item()
    assert abs(out - np.log(2.0)) < 1e-10


def test_kl_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(7), size=4)
        q = rng.dirichlet(np.ones(7), size=4)
        got = kl_transfer_loss(p, Tensor(q)).item()
        assert abs(got - kl_oracle(p, q)) < 1e-10


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(5), size=1000)
    q = rng.dirichlet(np.ones(5), size=1000)
    for lo in range(0, 1000, 100):
        assert kl_transfer_loss(p[lo:lo + 100], Tensor(q[lo:lo + 100])).item() > -1e-10


def test_kl_rejects_non_stochastic_rows():
    with pytest.raises(ContractError):
        kl_transfer_loss(np.array([[0.5, 0.4]]), Tensor([[0.5, 0.5]]))
    with pytest.raises(ContractError):
        kl_transfer_loss(np.array([[0.5, 0.5]]), Tensor([[0.7, 0.4]]))


def test_kl_underflowed_student_is_a_numeric_error():
    # An exact 0 in a row-stochastic student is a softmax that underflowed:
    # a diverging run (exit 4), not a caller mistake (exit 2).
    with pytest.raises(NumericError, match="strictly positive"):
        kl_transfer_loss(np.array([[0.5, 0.5]]), Tensor([[1.0, 0.0]]))


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    p = rng.dirichlet(np.ones(5), size=3)
    logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def build():
        return kl_transfer_loss(p, ad.softmax(logits))

    errors = ad.gradient_check(build, {"logits": logits}, eps=1e-6)
    assert max(errors.values()) < 1e-4


# -- ranking loss ----------------------------------------------------------------


def test_ranking_zero_when_margin_satisfied():
    anchors = Tensor([[1.0, 0.0], [0.0, 1.0]])
    positives = Tensor([[2.0, 0.0], [0.0, 3.0]])  # cos(pos)=1, cos(neg)=0 < 1-margin
    out = ranking_loss(anchors, positives, margin=0.5)
    assert out.item() == 0.0


def test_ranking_hinge_at_margin():
    # all representations mutually orthogonal: pos and neg similarities all 0
    anchors = Tensor(np.eye(4)[:2])
    positives = Tensor(np.eye(4)[2:])
    out = ranking_loss(anchors, positives, margin=1.0)
    assert abs(out.item() - 1.0) < 1e-12


def test_ranking_matches_exhaustive_oracle_batch3():
    anchors = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.3], [0.0, 0.4, 1.0]])
    positives = np.array([[0.9, 0.1, 0.1], [0.0, 1.1, 0.2], [0.2, 0.3, 0.8]])
    got = ranking_loss(Tensor(anchors), Tensor(positives), margin=0.5).item()
    assert abs(got - ranking_oracle(anchors, positives, 0.5)) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_ranking_matches_oracle_random(seed):
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(5, 8))
    positives = rng.normal(size=(5, 8))
    got = ranking_loss(Tensor(anchors), Tensor(positives), margin=0.5).item()
    assert abs(got - ranking_oracle(anchors, positives, 0.5)) < 1e-10


def test_ranking_scale_invariance():
    rng = np.random.default_rng(3)
    anchors = rng.normal(size=(4, 6))
    positives = rng.normal(size=(4, 6))
    base = ranking_loss(Tensor(anchors), Tensor(positives), margin=0.5).item()
    for row, c in ((0, 7.3), (2, 0.013)):
        scaled = anchors.copy()
        scaled[row] *= c
        out = ranking_loss(Tensor(scaled), Tensor(positives), margin=0.5).item()
        assert abs(out - base) < 1e-9


def test_ranking_zero_when_every_positive_beats_negatives_by_margin():
    # anchors aligned with their positives, negatives orthogonal
    anchors = Tensor(np.eye(3))
    positives = Tensor(np.eye(3) * 4.0)
    out = ranking_loss(anchors, positives, margin=0.9)
    assert out.item() == 0.0


def test_ranking_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    anchors = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    positives = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def build():
        return ranking_loss(anchors, positives, margin=0.5)

    errors = ad.gradient_check(build, {"a": anchors, "p": positives}, eps=1e-6)
    assert max(errors.values()) < 1e-4


def test_ranking_rejects_degenerate_plans():
    for anchors, positives in ((np.eye(2)[:1], np.eye(2)[:1]),  # one pair: no negative
                               (np.eye(3)[:2], np.eye(2))):     # unequal shapes
        with pytest.raises(ContractError):
            ranking_loss(Tensor(anchors), Tensor(positives), margin=0.5)


# -- combined loss -----------------------------------------------------------------


def _toy_batch(spec, pair_type, batch_size, seed, output_dim, with_teacher=True):
    rng = np.random.default_rng(seed)
    other = pair_type.split("+")[1]
    anchors = [Sample("image", rng.normal(size=spec.vision_input), f"img-{i}")
               for i in range(batch_size)]
    positives = [Sample(other, rng.normal(size=spec.input_shape(other)), f"{other[:3]}-{i}")
                 for i in range(batch_size)]
    rows = None
    if with_teacher:
        rows = rng.dirichlet(np.ones(output_dim), size=batch_size)
    return PairedBatch(pair_type, anchors, positives, rows)


def test_combined_weights_1_0_equals_kl_alone(tiny_spec_params):
    spec, params = tiny_spec_params
    batch = _toy_batch(spec, "image+sound", 3, 0, spec.output_dim)
    cfg = LossConfig(kl_weight=1.0, ranking_weight=0.0)
    total, terms = combined_loss(batch, params, cfg=cfg)

    img = np.stack([s.payload for s in batch.anchors])
    snd = np.stack([s.payload for s in batch.positives])
    expected = kl_transfer_loss(batch.teacher_rows,
                                nets.forward_batch(params, img, "image")["softmax"]).item() \
        + kl_transfer_loss(batch.teacher_rows,
                           nets.forward_batch(params, snd, "sound")["softmax"]).item()
    assert abs(total.item() - expected) < 1e-12
    assert set(terms) == {"kl", "total"}


def test_combined_weights_0_1_equals_ranking_alone(tiny_spec_params):
    spec, params = tiny_spec_params
    batch = _toy_batch(spec, "image+text", 4, 1, spec.output_dim, with_teacher=False)
    cfg = LossConfig(kl_weight=0.0, ranking_weight=1.0, ranking_layers=("shared2",))
    total, terms = combined_loss(batch, params, cfg=cfg)

    img = np.stack([s.payload for s in batch.anchors])
    txt = np.stack([s.payload for s in batch.positives])
    ia = nets.forward_batch(params, img, "image")["shared2"]
    ta = nets.forward_batch(params, txt, "text")["shared2"]
    expected = ranking_loss(ia, ta, cfg.margin).item() + ranking_loss(ta, ia, cfg.margin).item()
    assert abs(total.item() - expected) < 1e-12
    assert "kl" not in terms


def test_combined_4pair_fixture_matches_hand_assembled_sum(tiny_spec_params):
    spec, params = tiny_spec_params
    batch = _toy_batch(spec, "image+sound", 4, 2, spec.output_dim)
    cfg = LossConfig(kl_weight=0.7, ranking_weight=1.3,
                     ranking_layers=("bottleneck", "shared1", "shared2"))
    total, terms = combined_loss(batch, params, cfg=cfg)

    img = np.stack([s.payload for s in batch.anchors])
    snd = np.stack([s.payload for s in batch.positives])
    ia = nets.forward_batch(params, img, "image")
    sa = nets.forward_batch(params, snd, "sound")
    expected_kl = kl_oracle(batch.teacher_rows, ia["softmax"].data) \
        + kl_oracle(batch.teacher_rows, sa["softmax"].data)
    expected_rank = 0.0
    for layer in cfg.ranking_layers:
        expected_rank += ranking_oracle(ia[layer].data, sa[layer].data, cfg.margin)
        expected_rank += ranking_oracle(sa[layer].data, ia[layer].data, cfg.margin)
    assert abs(terms["kl"] - expected_kl) < 1e-9
    assert abs(terms["ranking"] - expected_rank) < 1e-9
    assert abs(total.item() - (0.7 * expected_kl + 1.3 * expected_rank)) < 1e-9


def test_no_sound_text_pair_type_exists():
    # structural: the batch type itself cannot represent sound+text
    with pytest.raises(ContractError):
        PairedBatch("sound+text", [], [])
    with pytest.raises(ContractError):
        PairedBatch("text+sound", [], [])
    rng = np.random.default_rng(0)
    snd = Sample("sound", rng.normal(size=(5, 20)), "snd-0")
    txt = Sample("text", rng.normal(size=(6, 16)), "txt-0")
    with pytest.raises(ContractError):
        PairedBatch("image+text", [snd], [txt])


def test_combined_missing_teacher_is_config_error(tiny_spec_params):
    spec, params = tiny_spec_params
    batch = _toy_batch(spec, "image+sound", 3, 3, spec.output_dim, with_teacher=False)
    with pytest.raises(ConfigError):
        combined_loss(batch, params, cfg=LossConfig(kl_weight=1.0, ranking_weight=1.0))


def combined_loss_check(seed, eps=3e-6, coords=4):
    """Finite-difference check of the full combined loss on a micro network.

    sigma and the fixture offset keep pre-activations and hinge margins away
    from their kinks at the probe scale, where central differences are valid.
    """
    spec = make_tiny_spec()
    params = nets.init_params(spec, seed=seed, sigma=0.1)
    batch = _toy_batch(spec, "image+sound" if seed % 2 == 0 else "image+text",
                       3, 200 + seed, spec.output_dim)
    cfg = LossConfig()

    def build():
        return combined_loss(batch, params, cfg=cfg)[0]

    return ad.gradient_check(build, dict(params.items()), eps=eps,
                             max_coords_per_param=coords, seed=seed)


def test_combined_loss_gradients_pass_finite_differences():
    errors = combined_loss_check(seed=0)
    worst = max(errors.values())
    assert worst < 1e-4, f"max relative error {worst}"
