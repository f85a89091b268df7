"""Training objectives: KL model transfer, cosine-margin ranking, and their sum.

The model-transfer loss distills a teacher's class probabilities into each
student pathway's softmax output. The ranking loss pushes the cosine
similarity of synchronized cross-modal pairs above mismatched in-batch pairs
by a margin, in both directions, on the bottleneck and shared hidden layers.
Each ranking term is one B x B cosine matrix: its diagonal holds the pairs,
and every off-diagonal entry serves as a negative.
Image+sound and image+text batches are supervised; sound+text never is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DegenerateInputError, NumericError, require
from .networks import TAP_NAMES, ModelParams, forward_batch

STUDENT_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """Margin, loss-term weights, and which layers the ranking loss touches."""

    margin: float = 0.5
    ranking_layers: tuple[str, ...] = ("bottleneck", "shared1", "shared2")
    kl_weight: float = 1.0
    ranking_weight: float = 1.0

    def __post_init__(self):
        require(self, self.margin > 0, "margin", "> 0")
        for name in ("kl_weight", "ranking_weight"):
            w = getattr(self, name)
            require(self, np.isfinite(w) and w >= 0, name, "finite and >= 0")
        if self.kl_weight == 0 and self.ranking_weight == 0:
            raise ConfigError("at least one loss term must have positive weight")
        require(self, set(self.ranking_layers) <= set(TAP_NAMES), "ranking_layers",
                f"taps among {TAP_NAMES}")
        require(self, self.ranking_weight == 0 or len(self.ranking_layers) > 0,
                "ranking_layers", "non-empty while ranking_weight > 0")


def kl_transfer_loss(teacher_probs, student_probs: Tensor) -> Tensor:
    """Mean over the batch of sum_j P_j log(P_j / Q_j), differentiable in Q.

    Both inputs must be row-stochastic; 0*log(0) is treated as 0 on the
    teacher side, and student entries are clamped at 1e-12 inside the log so
    early training cannot produce -inf. Malformed rows are a ContractError; a
    student entry of exactly 0 (an underflowed softmax) is a NumericError.
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
        # A softmax output reaches 0 only by underflow: a diverging run, not a
        # caller mistake.
        raise NumericError("student probabilities must be strictly positive "
                           "(the softmax underflowed)")

    batch = teacher.shape[0]
    entropy = float(np.sum(teacher * np.log(teacher, where=teacher > 0,
                                            out=np.zeros_like(teacher))))
    cross = ad.sum_all(ad.mul(ad.log(ad.clamp_min(student_probs, STUDENT_PROB_FLOOR)),
                              Tensor(teacher)))
    return (entropy - cross) * (1.0 / batch)


def ranking_loss(anchor_reprs: Tensor, positive_reprs: Tensor, margin: float = 0.5) -> Tensor:
    """Mean over every in-batch i != j of max(0, margin - S_ii + S_ij),
    where S_ij = cos(a_i, p_j) is one cosine matrix."""
    if anchor_reprs.data.ndim != 2 or anchor_reprs.data.shape != positive_reprs.data.shape:
        raise ContractError(
            f"anchors {anchor_reprs.data.shape} and positives "
            f"{positive_reprs.data.shape} must be equal (B,D)"
        )
    B = anchor_reprs.data.shape[0]
    if B < 2:
        raise ContractError(f"need at least 2 pairs for negatives, got {B}")

    sim = ad.cosine_matrix(anchor_reprs, positive_reprs)
    hinge = ad.relu((sim - ad.reshape(ad.diagonal(sim), (B, 1))) + margin)
    return ad.sum_all(ad.mul(hinge, Tensor(~np.eye(B, dtype=bool)))) / (B * (B - 1))


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

    image_arr = np.stack([s.payload for s in batch.anchors], dtype=np.float64)
    other_arr = np.stack([s.payload for s in batch.positives], dtype=np.float64)

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
        ranking_total: Tensor | None = None
        directions = (("image", image_acts, other_modality, other_acts),
                      (other_modality, other_acts, "image", image_acts))
        for layer in cfg.ranking_layers:
            halves = []
            for anchor, anchor_acts, positive, positive_acts in directions:
                try:
                    halves.append(ranking_loss(anchor_acts[layer], positive_acts[layer],
                                               cfg.margin))
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
