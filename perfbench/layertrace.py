"""Spans around calls into crossmodal's layers, recorded from outside.

Each wrapper replaces the name a caller looks up:

- ``networks`` and ``losses`` call ops as ``ad.<op>``, and Tensor operators
  call the module globals of ``autodiff``, so ops are wrapped on the
  ``autodiff`` module. An op's backward closure is wrapped on its output.
- ``training`` imports ``backward``, ``combined_loss`` and ``schedule_batch``
  by name, ``losses`` and ``evaluation`` import ``forward_batch`` by name,
  and ``cli`` imports ``load_checkpoint`` and ``load_dataset`` by name, so
  those are wrapped in the importing namespace.

Spans are kept in memory as ``[id, parent, root, name, start, end, info]``
and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import defaultdict

from crossmodal import autodiff as ad
from crossmodal import cli, data, losses, training
from crossmodal import evaluation as ev
from crossmodal import networks as nets

# Ops reported on their own; every other autodiff op is summed as "other".
NAMED_OPS = ("conv1d_same", "conv2d_same", "matmul", "add", "relu", "maxpool1d",
             "maxpool2d", "softmax", "cosine_similarity", "gather_rows")


def autodiff_ops() -> list[str]:
    """Every public op function of ``autodiff``, including ops added later."""
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_") and name not in ("backward", "gradient_check"))


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _forward_info(args, kwargs, out):
    return {"modality": _arg(args, kwargs, 2, "modality")}


def _embed_info(args, kwargs, out):
    samples = _arg(args, kwargs, 1, "samples")
    layer = _arg(args, kwargs, 2, "layer", ev.DEFAULT_LAYER)
    return {"layer": layer, "ids": [s.id for s in samples]}


# (module, attribute, span name, info function)
LAYER_TARGETS = [
    (training, "backward", "autodiff.backward", None),
    (nets, "forward_batch", "networks.forward_batch", _forward_info),
    (losses, "forward_batch", "networks.forward_batch", _forward_info),
    (ev, "forward_batch", "networks.forward_batch", _forward_info),
    (nets, "init_params", "networks.init_params", None),
    (training, "combined_loss", "losses.combined_loss", None),
    (losses, "ranking_loss", "losses.ranking_loss", None),
    (losses, "kl_transfer_loss", "losses.kl_transfer_loss", None),
    (training, "adam_step", "training.adam_step", None),
    (training, "save_checkpoint", "training.save_checkpoint", None),
    (cli, "load_checkpoint", "training.load_checkpoint", None),
    (training, "schedule_batch", "data.schedule_batch", None),
    (data, "generate_synthetic", "data.generate_synthetic", None),
    (data, "write_dataset", "data.write_dataset", None),
    (data, "load_dataset", "data.load_dataset", None),
    (cli, "load_dataset", "data.load_dataset", None),
    (ev, "embed_all", "evaluation.embed_all", _embed_info),
    (ev, "median_rank_retrieval", "evaluation.median_rank_retrieval", None),
    (ev, "zero_shot_transfer", "evaluation.zero_shot_transfer", None),
    (ev, "baseline_retrieval", "evaluation.baseline_retrieval", None),
    (ev, "probe_units", "evaluation.probe_units", None),
]


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else sid
        self.spans.append([sid, parent, root, name, time.perf_counter(), 0.0, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    @contextlib.contextmanager
    def root(self, name: str):
        """Install every wrapper and record one root span around the block."""
        self.install()
        try:
            with self.span(name):
                yield
        finally:
            self.uninstall()

    def _wrap(self, fn, name, info=None):
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if info is not None:
                self.spans[sid][6] = info(args, kwargs, out)
            return out
        return wrapper

    def _wrap_op(self, fn, op):
        name = f"autodiff.{op}"

        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.spans[sid][6] = {"bytes": out.data.nbytes}
            if out._backward_fn is not None:
                out._backward_fn = self._wrap(out._backward_fn, f"{name}.bwd")
            return out
        return wrapper

    def install(self) -> None:
        for op in autodiff_ops():
            self._replace(ad, op, self._wrap_op(getattr(ad, op), op))
        for module, attr, name, info in LAYER_TARGETS:
            self._replace(module, attr, self._wrap(getattr(module, attr), name, info))

    def _replace(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, start, end, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "root": root, "name": name,
                                     "start": start, "end": end, "info": info}) + "\n")


def _child_time(spans) -> dict[int, float]:
    """Span id -> summed duration of its direct children."""
    children = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            children[s[1]] += s[5] - s[4]
    return children


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced run.

    Operation roots are spans named ``op.<kind>``, set-up roots ``setup``.
    Op times are per round (one operation of each kind); metrics named after
    a step type are per step of that type; calls into set-up and I/O layers
    are per call; evaluation metrics are per ``crossmodal eval`` run.
    """
    children = _child_time(spans)
    roots = {s[0]: s[3] for s in spans if s[1] < 0}
    kind_of = {sid: name[len("op."):] for sid, name in roots.items() if name.startswith("op.")}
    count = defaultdict(int)
    for kind in kind_of.values():
        count[kind] += 1
    rounds = min(count.values()) if count else 0
    steps = sum(count.values())

    def dur(s):
        return s[5] - s[4]

    def self_time(s):
        return dur(s) - children[s[0]]

    def in_ops(s):
        return s[2] in kind_of

    def per(total, n):
        return total / n if n else 0.0

    out: dict[str, tuple[float, str]] = {}
    op_spans = defaultdict(list)
    bwd_spans = defaultdict(list)
    for s in spans:
        if not in_ops(s) or not s[3].startswith("autodiff."):
            continue
        parts = s[3].split(".")
        if parts[1] == "backward":
            continue
        op = parts[1] if parts[1] in NAMED_OPS else "other"
        (bwd_spans if parts[-1] == "bwd" else op_spans)[op].append(s)
    for op in NAMED_OPS + ("other",):
        fwd = op_spans[op]
        out[f"autodiff.{op}.fwd_ms"] = (per(sum(map(self_time, fwd)), rounds) * 1e3, "ms")
        out[f"autodiff.{op}.bwd_ms"] = (
            per(sum(map(self_time, bwd_spans[op])), rounds) * 1e3, "ms")
        out[f"autodiff.{op}.calls"] = (per(len(fwd), rounds), "count")
        out[f"autodiff.{op}.out_mb"] = (per(sum(s[6]["bytes"] for s in fwd), rounds) / 1e6, "MB")
    out["autodiff.ops_per_step"] = (per(sum(len(v) for v in op_spans.values()), steps), "count")

    def named(name, scope=in_ops):
        return [s for s in spans if s[3] == name and scope(s)]

    def of_kind(kind):
        return lambda s: kind_of.get(s[2]) == kind

    for kind in ("sound_step", "text_step"):
        n = count.get(kind, 0)
        out[f"autodiff.backward_ms.{kind}"] = (
            per(sum(map(dur, named("autodiff.backward", of_kind(kind)))), n) * 1e3, "ms")
        out[f"losses.combined_loss_self_ms.{kind}"] = (
            per(sum(map(self_time, named("losses.combined_loss", of_kind(kind)))), n) * 1e3,
            "ms")
    train_steps = count.get("sound_step", 0) + count.get("text_step", 0)
    for metric, name in (("losses.ranking_loss_ms", "losses.ranking_loss"),
                         ("losses.kl_transfer_loss_ms", "losses.kl_transfer_loss"),
                         ("training.adam_step_ms", "training.adam_step"),
                         ("data.schedule_batch_ms", "data.schedule_batch")):
        out[metric] = (per(sum(map(dur, named(name))), train_steps) * 1e3, "ms")

    forwards = defaultdict(list)
    for s in named("networks.forward_batch"):
        forwards[s[6]["modality"]].append(dur(s))
    for m in ("image", "sound", "text"):
        out[f"networks.forward_batch_ms.{m}"] = (per(sum(forwards[m]), len(forwards[m])) * 1e3,
                                                 "ms")

    def mean_call(name):
        calls = [dur(s) for s in spans if s[3] == name]
        return per(sum(calls), len(calls))

    for metric, name in (("networks.init_params_s", "networks.init_params"),
                         ("training.load_checkpoint_s", "training.load_checkpoint"),
                         ("training.save_checkpoint_s", "training.save_checkpoint"),
                         ("data.generate_synthetic_s", "data.generate_synthetic"),
                         ("data.write_dataset_s", "data.write_dataset"),
                         ("data.load_dataset_s", "data.load_dataset")):
        out[metric] = (mean_call(name), "s")

    eval_roots = [sid for sid, kind in kind_of.items() if kind == "eval"]
    evals = len(eval_roots)
    in_eval = of_kind("eval")
    embeds = named("evaluation.embed_all", in_eval)
    samples = sum(len(s[6]["ids"]) for s in embeds)
    distinct = sum(len({(i, s[6]["layer"]) for s in embeds if s[2] == root for i in s[6]["ids"]})
                   for root in eval_roots)
    out["evaluation.embed_all_s"] = (per(sum(map(dur, embeds)), evals), "s")
    out["evaluation.embed_all.samples"] = (per(samples, evals), "count")
    out["evaluation.embed_distinct_share"] = (per(distinct, samples), "share")
    out["evaluation.median_rank_retrieval_ms"] = (
        mean_call("evaluation.median_rank_retrieval") * 1e3, "ms")
    out["evaluation.zero_shot_self_s"] = (
        per(sum(map(self_time, named("evaluation.zero_shot_transfer", in_eval))), evals), "s")
    out["evaluation.baseline_retrieval_ms"] = (
        mean_call("evaluation.baseline_retrieval") * 1e3, "ms")
    out["evaluation.probe_units_self_ms"] = (
        per(sum(map(self_time, named("evaluation.probe_units", in_eval))), evals) * 1e3, "ms")
    out["cli.eval_self_s"] = (per(sum(self_time(spans[sid]) for sid in eval_roots), evals), "s")
    return out


def step_accounting(spans: list[list]) -> dict[str, dict[str, float]]:
    """Mean ms per training step, split into the layers the step passes
    through; ``unaccounted`` is the step's own time outside every span."""
    roots = {s[0]: s[3][len("op."):] for s in spans if s[1] < 0 and s[3].startswith("op.")}
    children = _child_time(spans)
    table: dict[str, dict[str, float]] = {}
    for kind in ("sound_step", "text_step"):
        ids = [sid for sid, k in roots.items() if k == kind]
        if not ids:
            continue
        part = defaultdict(float)
        for s in spans:
            if roots.get(s[2]) != kind or s[1] < 0:
                continue
            name = s[3]
            self_t = s[5] - s[4] - children[s[0]]
            if name.endswith(".bwd") or name == "autodiff.backward":
                part["autodiff.backward"] += self_t
            elif name.startswith("autodiff."):
                part["autodiff.forward_ops"] += self_t
            else:
                part[name] += self_t
        step = sum(spans[sid][5] - spans[sid][4] for sid in ids)
        part["unaccounted"] = sum(spans[sid][5] - spans[sid][4] - children[sid] for sid in ids)
        table[kind] = {k: v / len(ids) * 1e3 for k, v in sorted(part.items())}
        table[kind]["step"] = step / len(ids) * 1e3
    return table
