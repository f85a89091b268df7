"""Training objectives: KL model transfer, cosine-margin ranking, and their sum.

The model-transfer loss distills a teacher's class probabilities into each
student pathway's softmax output. The ranking loss pushes the cosine
similarity of synchronized cross-modal pairs above mismatched in-batch pairs
by a margin, in both directions, on the bottleneck and shared hidden layers.
Image+sound and image+text batches are supervised; sound+text never is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DegenerateInputError, NumericError
from .networks import TAP_NAMES, ModelParams, forward_batch

STUDENT_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """Margin, loss-term weights, and which layers the ranking loss touches."""

    margin: float = 0.5
    ranking_layers: tuple[str, ...] = ("bottleneck", "shared1", "shared2")
    kl_weight: float = 1.0
    ranking_weight: float = 1.0
    negatives_per_positive: int | None = None  # None: all other in-batch pairs
    seed: int = 0

    def __post_init__(self):
        if not self.margin > 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        for name, w in (("kl_weight", self.kl_weight), ("ranking_weight", self.ranking_weight)):
            if not np.isfinite(w) or w < 0:
                raise ConfigError(f"{name} must be finite and nonnegative, got {w}")
        if self.kl_weight == 0 and self.ranking_weight == 0:
            raise ConfigError("at least one loss term must have positive weight")
        unknown = set(self.ranking_layers) - set(TAP_NAMES)
        if unknown:
            raise ConfigError(f"unknown ranking layers {sorted(unknown)}; valid: {TAP_NAMES}")
        if self.ranking_weight > 0 and not self.ranking_layers:
            raise ConfigError("ranking loss enabled but no ranking layers selected")
        if self.negatives_per_positive is not None and self.negatives_per_positive < 1:
            raise ConfigError("negatives_per_positive must be >= 1")


def kl_transfer_loss(teacher_probs, student_probs: Tensor) -> Tensor:
    """Mean over the batch of sum_j P_j log(P_j / Q_j), differentiable in Q.

    Both inputs must be row-stochastic; 0*log(0) is treated as 0 on the
    teacher side, and student entries are clamped at 1e-12 inside the log so
    early training cannot produce -inf.
    """
    teacher = np.asarray(teacher_probs.data if isinstance(teacher_probs, Tensor)
                         else teacher_probs, dtype=np.float64)
    if teacher.ndim != 2 or student_probs.data.shape != teacher.shape:
        raise ContractError(
            f"teacher {teacher.shape} and student {student_probs.data.shape} must be equal (B,N)"
        )
    if (teacher < 0).any():
        raise ContractError("teacher probabilities must be nonnegative")
    if np.abs(teacher.sum(axis=1) - 1.0).max() > 1e-6:
        raise ContractError("teacher rows must sum to 1 within 1e-6")
    if np.abs(student_probs.data.sum(axis=1) - 1.0).max() > 1e-6:
        raise ContractError("student rows must sum to 1 within 1e-6")
    if (student_probs.data <= 0).any():
        raise ContractError("student probabilities must be strictly positive")

    batch = teacher.shape[0]
    entropy = float(np.sum(teacher * np.log(teacher, where=teacher > 0,
                                            out=np.zeros_like(teacher))))
    cross = ad.sum_all(ad.mul(ad.log(ad.clamp_min(student_probs, STUDENT_PROB_FLOOR)),
                              Tensor(teacher)))
    return (entropy - cross) * (1.0 / batch)


def negative_plan(batch_size: int, negatives_per_positive: int | None = None,
                  seed: int = 0) -> list[tuple[int, int]]:
    """(anchor, negative) index pairs within a batch, deterministic given seed.

    Every other in-batch pair serves as a negative, capped at
    negatives_per_positive per anchor (seeded choice without replacement).
    """
    if batch_size < 2:
        raise ContractError(f"need at least 2 pairs for negatives, got {batch_size}")
    cap = negatives_per_positive
    if cap is None or cap >= batch_size - 1:
        return [(i, j) for i in range(batch_size) for j in range(batch_size) if j != i]
    rng = np.random.default_rng(seed)
    plan = []
    for i in range(batch_size):
        others = np.array([j for j in range(batch_size) if j != i])
        picks = rng.choice(others, size=cap, replace=False)
        plan.extend((i, int(j)) for j in picks)
    return plan


def ranking_loss(anchor_reprs: Tensor, positive_reprs: Tensor,
                 negative_index_plan, margin: float = 0.5) -> Tensor:
    """Mean over (i,j) of max(0, margin - cos(a_i, p_i) + cos(a_i, p_j))."""
    if anchor_reprs.data.ndim != 2 or anchor_reprs.data.shape != positive_reprs.data.shape:
        raise ContractError(
            f"anchors {anchor_reprs.data.shape} and positives "
            f"{positive_reprs.data.shape} must be equal (B,D)"
        )
    B = anchor_reprs.data.shape[0]
    if B < 2:
        raise ContractError(f"ranking loss needs a batch of >= 2, got {B}")
    plan = list(negative_index_plan)
    if not plan:
        raise ContractError("empty negative index plan")
    anchor_idx = np.array([i for i, _ in plan], dtype=np.intp)
    negative_idx = np.array([j for _, j in plan], dtype=np.intp)
    if (anchor_idx == negative_idx).any():
        raise ContractError("negative plan pairs an anchor with its own positive")
    if anchor_idx.min() < 0 or max(anchor_idx.max(), negative_idx.max()) >= B:
        raise ContractError("negative plan index out of range")

    anchors = ad.gather_rows(anchor_reprs, anchor_idx)
    pos = ad.gather_rows(positive_reprs, anchor_idx)
    neg = ad.gather_rows(positive_reprs, negative_idx)
    pos_sim = ad.cosine_similarity(anchors, pos)
    neg_sim = ad.cosine_similarity(anchors, neg)
    hinge = ad.relu((neg_sim - pos_sim) + margin)
    return ad.mean_all(hinge)


def combined_loss(batch, params: ModelParams,
                  cfg: LossConfig | None = None) -> tuple[Tensor, dict[str, float]]:
    """Weighted sum of the model-transfer and ranking terms for one batch.

    The KL term distills the paired image's teacher row into the softmax of
    both student pathways. Ranking terms run in both directions (image as
    anchor and as positive) on every configured layer. Returns the scalar
    loss and a per-term breakdown of float values. The KL targets are
    ``batch.teacher_rows``, resolved when the batch was assembled.
    """
    cfg = cfg or LossConfig()
    if batch.pair_type not in ("image+sound", "image+text"):
        raise ContractError(f"unsupported pair type {batch.pair_type!r}")
    other_modality = batch.pair_type.split("+")[1]

    image_arr = np.stack([s.payload for s in batch.anchors]).astype(np.float64)
    other_arr = np.stack([s.payload for s in batch.positives]).astype(np.float64)
    B = image_arr.shape[0]

    teacher_rows = batch.teacher_rows
    if cfg.kl_weight > 0 and teacher_rows is None:
        raise ConfigError("model-transfer loss enabled but no teacher targets supplied")

    try:
        image_acts = forward_batch(params, image_arr, "image")
        other_acts = forward_batch(params, other_arr, other_modality)
    except NumericError as exc:
        raise NumericError(f"forward pass ({batch.pair_type}): {exc}") from exc

    terms: dict[str, float] = {}
    total: Tensor | None = None

    if cfg.kl_weight > 0:
        try:
            kl = kl_transfer_loss(teacher_rows, image_acts["softmax"]) \
                + kl_transfer_loss(teacher_rows, other_acts["softmax"])
        except NumericError as exc:
            raise NumericError(f"kl term: {exc}") from exc
        terms["kl"] = kl.item()
        total = kl * cfg.kl_weight

    if cfg.ranking_weight > 0:
        plan = negative_plan(B, cfg.negatives_per_positive, cfg.seed)
        ranking_total: Tensor | None = None
        directions = (("image", image_acts, other_modality, other_acts),
                      (other_modality, other_acts, "image", image_acts))
        for layer in cfg.ranking_layers:
            halves = []
            for anchor, anchor_acts, positive, positive_acts in directions:
                try:
                    halves.append(ranking_loss(anchor_acts[layer], positive_acts[layer],
                                               plan, cfg.margin))
                except (NumericError, DegenerateInputError) as exc:
                    raise type(exc)(
                        f"ranking term ({layer}, {anchor}->{positive}): {exc}") from exc
            term = halves[0] + halves[1]
            terms[f"ranking_{layer}"] = term.item()
            ranking_total = term if ranking_total is None else ranking_total + term
        terms["ranking"] = ranking_total.item()
        weighted = ranking_total * cfg.ranking_weight
        total = weighted if total is None else total + weighted

    terms["total"] = total.item()
    return total, terms
