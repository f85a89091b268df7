"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation set is exactly what the cross-modal networks and losses need:
matmul/bias (fully connected), same-padded 1-D and 2-D cross-correlation,
non-overlapping and overlapping max-pooling, relu, row softmax, the cosine
matrix of two row sets with its diagonal, and the elementwise/reduction glue
to assemble scalar losses.

Graphs are implicit: every Tensor records its parents and a closure that maps
the output gradient to parent gradients. Tensors are immutable once created,
so creation order (``uid``) is a valid topological order and ``backward``
walks reachable nodes by descending uid. Everything is float64 and
deterministic: same inputs, same machine and BLAS thread count, bitwise-same
outputs. A conv forward large enough splits its output over ``CONV_WORKERS``
threads; each output element's arithmetic stays the same, so the bits do not
depend on that count.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    NumericError,
    ShapeError,
)

_uid_counter = itertools.count()

COSINE_NORM_EPS = 1e-8
COSINE_MIN_NORM = 1e-12
# Columns of the channel-major row one conv1d_same forward block sums over:
# 14 desk text samples (16 + 2 padding columns each) share one row.
CONV1D_ROW = 256
# A single-sample conv forward with fewer multiply-adds than this runs
# inline, with no thread involved: the paper's text convs and third sound
# conv do, and so does every desk layer but the sound input layer.
CONV_SPLIT_MACS = 2**23


def _affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _start_pool(workers: int) -> ThreadPoolExecutor | None:
    # The calling thread is one of the workers; the pool holds the others.
    return ThreadPoolExecutor(workers - 1, thread_name_prefix="conv") if workers > 1 else None


# One conv worker per CPU the process may run on; `taskset` narrows it.
CONV_WORKERS = _affinity_cpus()
_POOL = _start_pool(CONV_WORKERS)
if hasattr(os, "register_at_fork"):
    # A forked child inherits the pool but none of its threads.
    os.register_at_fork(after_in_child=lambda: globals().update(_POOL=_start_pool(CONV_WORKERS)))


def _split(n: int, macs: int, fn: Callable[[int, int], None]) -> None:
    """Run fn(lo, hi) over disjoint, contiguous parts of range(n), one part
    per conv worker: the calling thread runs the first part and the pool's
    threads the others. The call returns once every part has stopped, then
    re-raises a part's exception. A call of fewer than CONV_SPLIT_MACS
    multiply-adds, with one worker, or with n < 4 runs fn(0, n) inline.

    Every part spans at least two indices: a part of one output row of one
    column would leave each filter a single output element, and einsum then
    sums the contiguous channel column in its unrolled loop, out of channel
    order."""
    parts = min(n // 2, CONV_WORKERS) if macs >= CONV_SPLIT_MACS else 1
    if parts < 2:
        fn(0, n)
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    futures = [_POOL.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


class Tensor:
    """A float64 array plus the autodiff bookkeeping to reach it."""

    __slots__ = ("data", "requires_grad", "grad", "uid", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.uid = next(_uid_counter)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], Iterable[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not part of the op set")
        return mul(self, _as_tensor(1.0 / float(other)))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return sum_all(self)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> dict[int, np.ndarray]:
        return backward(self)


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
    """Create an op output, guarding against non-finite values."""
    if not np.isfinite(data).all():
        raise NumericError(f"{op} produced non-finite values")
    out = Tensor(data)
    live = tuple(p for p in parents if p.requires_grad)
    if live:
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise and structural ops --------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bk(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(data, (a, b), bk, "add")


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,), "neg")


def mul(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = a.data * b.data

    def bk(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bk, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.data.shape} @ {b.data.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data @ b.data

    def bk(g):
        return g @ b.data.T, a.data.T @ g

    return _node(data, (a, b), bk, "matmul")


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    mask = a.data > 0.0  # subgradient 0 at exactly 0

    def bk(g):
        return (g * mask,)

    return _node(data, (a,), bk, "relu")


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def bk(g):
        return (g / a.data,)

    return _node(data, (a,), bk, "log")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    data = np.maximum(a.data, floor)
    mask = a.data >= floor

    def bk(g):
        return (g * mask,)

    return _node(data, (a,), bk, "clamp_min")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)

    def bk(g):
        return (g.reshape(a.data.shape),)

    return _node(data, (a,), bk, "reshape")


def diagonal(a: Tensor) -> Tensor:
    """The main diagonal of a square a[N,N] -> (N,)."""
    if a.data.ndim != 2 or a.data.shape[0] != a.data.shape[1]:
        raise ShapeError(f"diagonal expects a square (N,N) operand, got {a.data.shape}")

    def bk(g):
        return (np.diag(g),)

    return _node(a.data.diagonal().copy(), (a,), bk, "diagonal")


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def bk(g):
        return (np.broadcast_to(g, a.data.shape).astype(np.float64),)

    return _node(data, (a,), bk, "sum_all")


# -- network ops ----------------------------------------------------------


def fully_connected(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[B,I] @ weight[I,O] + bias[O]."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError(
            f"fully_connected expects (B,I),(I,O),(O,), got "
            f"{x.data.shape}, {weight.data.shape}, {bias.data.shape}"
        )
    if x.data.shape[1] != weight.data.shape[0] or weight.data.shape[1] != bias.data.shape[0]:
        raise ShapeError(
            f"fully_connected extents do not conform: "
            f"{x.data.shape}, {weight.data.shape}, {bias.data.shape}"
        )
    return add(matmul(x, weight), bias)


def _conv_same_backward(x: np.ndarray, kern: np.ndarray, g: np.ndarray,
                        need_dx: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """Input and kernel gradients of a stride-1 "same" convolution, in any
    number of spatial dimensions: one GEMM per kernel tap and no window copy.

    x: (B, C, *S), kern: (F, C, *K) with odd K, g: (B, F, *S). The padded
    input is laid out channels-last as one flat (n, C) array, a row per padded
    position (n = B * prod(padded S)), plus zero rows at the end for the
    last tap's shift. The upstream gradient sits on the same rows, at each
    output's first tap, and is zero on the rows past S in each sample. Tap k
    then reads the input rows shifted by its flat offset off (a*Wp + b for
    tap (a, b) in 2-D): its kernel gradient is gm.T @ xf[off:off + n] and it
    adds gm @ kern[..., k] to dxf[off:off + n]. The zero rows cost
    prod(padded S) / prod(S) - 1 extra work. BLAS sums in its own order, so
    the result is not bitwise that of a per-tap einsum.
    """
    B, C, *S = x.shape
    F, _, *K = kern.shape
    pads = [(k - 1) // 2 for k in K]
    Sp = [s + 2 * p for s, p in zip(S, pads)]
    n = B * int(np.prod(Sp))
    row_steps = np.cumprod([1, *Sp[:0:-1]])[::-1]  # flat rows per step along each axis
    offsets = [int(np.dot(tap, row_steps)) for tap in np.ndindex(*K)]
    inner = (slice(None), *(slice(p, p + s) for p, s in zip(pads, S)))

    xf = np.zeros((n + offsets[-1], C))
    xf[:n].reshape(B, *Sp, C)[inner] = np.moveaxis(x, 1, -1)
    gm = np.zeros((n, F))
    gm.reshape(B, *Sp, F)[(slice(None), *(slice(0, s) for s in S))] = np.moveaxis(g, 1, -1)
    taps = np.ascontiguousarray(np.moveaxis(kern.reshape(F, C, -1), -1, 0))  # (T, F, C)
    dk = np.empty((F, C, len(offsets)))
    # A data batch needs no input gradient.
    dxf = np.zeros_like(xf) if need_dx else None
    for t, off in enumerate(offsets):
        dk[:, :, t] = gm.T @ xf[off:off + n]
        if dxf is not None:
            dxf[off:off + n] += gm @ taps[t]
    dk = dk.reshape(kern.shape)
    if dxf is None:
        return None, dk
    return np.ascontiguousarray(np.moveaxis(dxf[:n].reshape(B, *Sp, C)[inner], -1, 1)), dk


def conv1d_same(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Same-length 1-D cross-correlation, stride 1, zero padding (K-1)/2.

    x: (B, C, L), kernels: (F, C, K) with K odd, bias: (F,) -> (B, F, L).
    Forward walks the batch in blocks of max(1, CONV1D_ROW // (L + K - 1))
    samples, which sit side by side in one channel-major (C, width) row
    with K - 1 zero columns between neighbours; a sample whose padded length
    is more than half a row is its own block, read in place (a lone sample
    of length 1 is copied beside a zero column instead). Each kernel
    tap adds one einsum over channels into the block's (F, width)
    accumulator, taps outer, which keeps the summation order identical to a
    nested-loop evaluation. Tap t adds only into the columns whose input
    lies inside the row, and a tap that covers none is skipped. Any other
    column a tap reads outside its sample is a zero column: it adds an
    exact zero to a sum that starts at +0.0 and so is never -0.0, which
    changes no bit; the result is bitwise that of the padded loop.
    A single-sample forward of at least CONV_SPLIT_MACS multiply-adds splits
    its output columns over the conv workers (see ``_split``), each part
    reading the sample in place. A part decides only which thread sums an
    element, so the bits do not follow the worker count. A batch runs on the
    calling thread: split by samples, the desk sound input layer at B=30 ran
    1.8 times as fast with the second CPU free and no faster with it busy,
    so a batch's time would follow the machine's other load.
    Backward runs one GEMM per tap on a shifted view of the flat,
    channels-last padded input (see ``_conv_same_backward``); it is not
    bitwise equal to the per-tap einsum, only to within rounding.
    """
    if x.data.ndim != 3 or kernels.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError(
            f"conv1d_same expects (B,C,L),(F,C,K),(F,), got "
            f"{x.data.shape}, {kernels.data.shape}, {bias.data.shape}"
        )
    B, C, L = x.data.shape
    F, Ck, K = kernels.data.shape
    if K % 2 == 0:
        raise ConfigError(f"conv1d_same kernel size must be odd, got {K}")
    if Ck != C or bias.data.shape[0] != F:
        raise ShapeError(
            f"conv1d_same extents do not conform: input {x.data.shape}, "
            f"kernels {kernels.data.shape}, bias {bias.data.shape}"
        )
    pad = (K - 1) // 2
    kern = kernels.data
    out = np.zeros((B, F, L))
    S = L + 2 * pad

    def add_taps(acc, row, c0, c1):
        # acc holds output columns [c0, c1) of row; column l reads input
        # column l + t - pad at tap t.
        W = row.shape[1]
        for t in range(K):
            lo, hi = max(c0, pad - t), min(c1, W + pad - t)
            if lo < hi:
                acc[:, lo - c0:hi - c0] += np.einsum(
                    "cn,fc->fn", row[:, lo + t - pad:hi + t - pad], kern[:, :, t])

    per_block = min(B, max(1, CONV1D_ROW // S))
    if per_block > 1:
        # Sample i fills row columns [i*S, i*S + L); its output lands there too.
        rows = np.zeros((C, per_block, S))
    for b0 in range(0, B, per_block):
        n = min(per_block, B - b0)
        if n == 1 and L > 1 and B == 1:
            # Each part reads the sample in place and sums into its own columns.
            _split(L, F * C * K * L, lambda c0, c1: add_taps(out[0, :, c0:c1], x.data[0], c0, c1))
        elif n == 1 and L > 1:
            add_taps(out[b0], x.data[b0], 0, L)
        elif n == 1:
            # A one-column row would let einsum reduce the contiguous channel
            # column in its unrolled loop, out of channel order; a zero
            # column beside it keeps the reduction sequential.
            acc = np.zeros((F, 2))
            add_taps(acc, np.hstack([x.data[b0], np.zeros((C, 1))]), 0, 2)
            out[b0] = acc[:, :1]
        else:
            rows[:, :n, :L] = x.data[b0:b0 + n].transpose(1, 0, 2)
            W = n * S - 2 * pad
            acc = np.zeros((F, n * S))
            add_taps(acc, rows[:, :n].reshape(C, n * S)[:, :W], 0, W)
            out[b0:b0 + n] = acc.reshape(F, n, S)[:, :, :L].transpose(1, 0, 2)
    out += bias.data[None, :, None]

    def bk(g):
        # The padded input is rebuilt here, so no forward temporary outlives
        # the forward pass.
        dx, dk = _conv_same_backward(x.data, kern, g, x.requires_grad)
        return dx, dk, g.sum(axis=(0, 2))

    return _node(out, (x, kernels, bias), bk, "conv1d_same")


def conv2d_same(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Strided 2-D cross-correlation with zero "same" padding (K-1)/2 per side.

    x: (B, C, H, W), kernels: (F, C, Kh, Kw) with odd extents, bias: (F,).
    Output spatial extents are ceil(H/stride) x ceil(W/stride).
    Forward accumulates one kernel tap at a time, taps outer and channels
    inner (einsum over channels), so the summation order is that of a
    nested-loop evaluation. Each tap's strided window is first copied into
    one contiguous buffer, so the einsum runs one long loop over the map
    instead of one output row at a time. A single-sample forward of at least
    CONV_SPLIT_MACS multiply-adds splits its output rows over the conv
    workers (see ``_split``), each part with its own window buffer; the bits
    do not follow the worker count. A batch runs on the calling thread, as in
    ``conv1d_same``.
    At stride 1, backward runs one GEMM per tap on a shifted view of the
    flat, channels-last padded input (see ``_conv_same_backward``); it is not
    bitwise equal to the per-tap einsum, only to within rounding. A strided
    conv keeps the per-tap einsum backward.
    """
    if x.data.ndim != 4 or kernels.data.ndim != 4 or bias.data.ndim != 1:
        raise ShapeError(
            f"conv2d_same expects (B,C,H,W),(F,C,Kh,Kw),(F,), got "
            f"{x.data.shape}, {kernels.data.shape}, {bias.data.shape}"
        )
    B, C, H, W = x.data.shape
    F, Ck, Kh, Kw = kernels.data.shape
    if Kh % 2 == 0 or Kw % 2 == 0:
        raise ConfigError(f"conv2d_same kernel extents must be odd, got {Kh}x{Kw}")
    if Ck != C or bias.data.shape[0] != F:
        raise ShapeError(
            f"conv2d_same extents do not conform: input {x.data.shape}, "
            f"kernels {kernels.data.shape}, bias {bias.data.shape}"
        )
    if stride < 1:
        raise ConfigError(f"conv2d_same stride must be >= 1, got {stride}")
    ph, pw = (Kh - 1) // 2, (Kw - 1) // 2
    Hp, Wp = H + 2 * ph, W + 2 * pw
    if stride > Hp or stride > Wp:
        raise ShapeError(f"stride {stride} exceeds padded extent {Hp}x{Wp}")
    Ho = (H - 1) // stride + 1
    Wo = (W - 1) // stride + 1

    def padded():
        xp = np.zeros((B, C, Hp, Wp))
        xp[:, :, ph:ph + H, pw:pw + W] = x.data
        return xp

    def window(arr, a, b):
        return arr[:, :, a:a + stride * (Ho - 1) + 1:stride,
                   b:b + stride * (Wo - 1) + 1:stride]

    xp = padded()
    kern = kernels.data
    out = np.zeros((B, F, Ho, Wo))

    def rows(r0, r1):
        # Output rows [r0, r1) of every sample: one window buffer per part.
        acc = out[:, :, r0:r1]
        win = np.empty((B, C, r1 - r0, Wo))
        for a in range(Kh):
            for b in range(Kw):
                np.copyto(win, window(xp, a, b)[:, :, r0:r1])
                acc += np.einsum("bchw,fc->bfhw", win, kern[:, :, a, b])

    if B == 1:
        _split(Ho, F * C * Kh * Kw * Ho * Wo, rows)
    else:
        rows(0, Ho)
    out += bias.data[None, :, None, None]

    def bk(g):
        db = g.sum(axis=(0, 2, 3))
        if stride == 1:
            dx, dk = _conv_same_backward(x.data, kern, g, x.requires_grad)
            return dx, dk, db
        xp = padded()  # rebuilt, so no forward temporary outlives the forward
        dk = np.empty_like(kern)
        # A data batch needs no input gradient.
        dxp = np.zeros_like(xp) if x.requires_grad else None
        for a in range(Kh):
            for b in range(Kw):
                dk[:, :, a, b] = np.einsum("bfhw,bchw->fc", g, window(xp, a, b))
                if dxp is not None:
                    dwin = window(dxp, a, b)
                    dwin += np.einsum("bfhw,fc->bchw", g, kern[:, :, a, b])
        if dxp is None:
            return None, dk, db
        dx = np.ascontiguousarray(dxp[:, :, ph:ph + H, pw:pw + W])
        return dx, dk, db

    return _node(out, (x, kernels, bias), bk, "conv2d_same")


def maxpool1d(x: Tensor, factor: int) -> Tensor:
    """Non-overlapping window max over the last axis, ceil mode.

    x: (B, C, L) -> (B, C, ceil(L/factor)). Ragged tails are padded with -inf,
    and the backward pass routes the gradient to the first maximal element.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool1d expects (B,C,L), got {x.data.shape}")
    if factor < 1:
        raise ConfigError(f"maxpool1d factor must be >= 1, got {factor}")
    B, C, L = x.data.shape
    Lo = -(-L // factor)
    xp = np.full((B, C, Lo * factor), -np.inf)
    xp[:, :, :L] = x.data
    windows = xp.reshape(B, C, Lo, factor)
    out = windows.max(axis=-1)
    arg = windows.argmax(axis=-1)  # first maximum wins ties

    def bk(g):
        dw = np.zeros((B, C, Lo, factor))
        np.put_along_axis(dw, arg[..., None], g[..., None], axis=-1)
        return (dw.reshape(B, C, Lo * factor)[:, :, :L].copy(),)

    return _node(out, (x,), bk, "maxpool1d")


def maxpool2d(x: Tensor, window: int, stride: int | None = None) -> Tensor:
    """2-D window max over the trailing axes; valid (floor) placement.

    x: (B, C, H, W) -> (B, C, Ho, Wo) with Ho = floor((H-window)/stride)+1.
    Windows may overlap (e.g. 3x3 stride 2); gradient goes to the first
    maximal element of each window in row-major order.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects (B,C,H,W), got {x.data.shape}")
    if window < 1:
        raise ConfigError(f"maxpool2d window must be >= 1, got {window}")
    stride = window if stride is None else stride
    if stride < 1:
        raise ConfigError(f"maxpool2d stride must be >= 1, got {stride}")
    B, C, H, W = x.data.shape
    if window > H or window > W:
        raise ShapeError(f"maxpool2d window {window} exceeds input {H}x{W}")
    Ho = (H - window) // stride + 1
    Wo = (W - window) // stride + 1

    # Stack the window offsets in row-major order so argmax ties resolve to
    # the first (lowest-index) element.
    tiles = np.empty((window * window, B, C, Ho, Wo))
    for a in range(window):
        for b in range(window):
            tiles[a * window + b] = x.data[:, :, a:a + stride * (Ho - 1) + 1:stride,
                                           b:b + stride * (Wo - 1) + 1:stride]
    out = tiles.max(axis=0)
    arg = tiles.argmax(axis=0)

    def bk(g):
        dx = np.zeros((B, C, H * W))
        # flat input position of each window's argmax
        oh = np.arange(Ho)[:, None] * stride
        ow = np.arange(Wo)[None, :] * stride
        pos_h = oh[None, None] + arg // window
        pos_w = ow[None, None] + arg % window
        flat = pos_h * W + pos_w
        bi = np.arange(B)[:, None, None, None]
        ci = np.arange(C)[None, :, None, None]
        np.add.at(dx, (bi, ci, flat), g)
        return (dx.reshape(B, C, H, W),)

    return _node(out, (x,), bk, "maxpool2d")


def softmax(x: Tensor) -> Tensor:
    """Row softmax of x[B,N], computed with max subtraction."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax expects (B,N), got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bk(g):
        return (s * (g - (g * s).sum(axis=1, keepdims=True)),)

    return _node(s, (x,), bk, "softmax")


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of every row of a[B,D] with every row of b[N,D] -> (B, N).

    The value is the exact dot/(|a||b|) ratio clamped to [-1, 1] (so it is
    scale invariant to rounding); the 1e-8 norm epsilon enters only the
    backward denominators, where it serves gradient stability. Rows with
    norm below 1e-12 are rejected as degenerate rather than mapped to 0.
    The dots are one GEMM forward, and the backward is two more.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(
            f"cosine_matrix expects (B,D) and (N,D) operands, got "
            f"{a.data.shape} and {b.data.shape}"
        )
    na_raw = np.sqrt((a.data * a.data).sum(axis=1))
    nb_raw = np.sqrt((b.data * b.data).sum(axis=1))
    if (na_raw < COSINE_MIN_NORM).any() or (nb_raw < COSINE_MIN_NORM).any():
        raise DegenerateInputError("cosine_matrix: zero-norm row")
    na = na_raw + COSINE_NORM_EPS
    nb = nb_raw + COSINE_NORM_EPS
    dot = a.data @ b.data.T
    cos = np.clip(dot / np.outer(na_raw, nb_raw), -1.0, 1.0)

    def bk(g):
        w = g / np.outer(na, nb)
        wd = w * dot
        ga = w @ b.data - a.data * (wd.sum(axis=1) / (na * na_raw))[:, None]
        gb = w.T @ a.data - b.data * (wd.sum(axis=0) / (nb * nb_raw))[:, None]
        return ga, gb

    return _node(cos, (a, b), bk, "cosine_matrix")


# -- backward pass --------------------------------------------------------


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Populates ``.grad`` on every reachable tensor with ``requires_grad`` and
    returns the same gradients keyed by node uid. Gradients accumulate where
    a node feeds several consumers.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return {}

    # Reachable subgraph; uid order is a topological order by construction.
    seen: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node.uid in seen:
            continue
        seen[node.uid] = node
        for p in node._parents:
            if p.requires_grad and p.uid not in seen:
                stack.append(p)

    grads: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
    for uid in sorted(seen, reverse=True):
        node = seen[uid]
        g = grads.get(uid)
        if g is None or node._backward_fn is None:
            continue
        parent_grads = node._backward_fn(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(parent.uid)
            grads[parent.uid] = pg if acc is None else acc + pg

    for uid, node in seen.items():
        if uid in grads:
            node.grad = grads[uid]
    return grads


def gradient_check(
    build_loss: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    max_coords_per_param: int | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Compare analytic gradients of a scalar loss against central differences.

    ``build_loss`` must rebuild the forward graph from the current contents of
    ``params`` each call. Returns, per parameter, the maximum relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8) over the checked
    coordinates (all of them, or a seeded sample of ``max_coords_per_param``).
    """
    loss = build_loss()
    backward(loss)
    analytic = {}
    for name, p in params.items():
        if p.grad is None:
            analytic[name] = np.zeros_like(p.data)
        else:
            analytic[name] = p.grad.copy()
        p.grad = None

    rng = np.random.default_rng(seed)
    errors: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = np.arange(n)
        worst = 0.0
        ana_flat = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = build_loss().item()
            flat[i] = orig - eps
            f_minus = build_loss().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(ana_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(ana_flat[i] - numeric) / denom)
        errors[name] = worst
    return errors
