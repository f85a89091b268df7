"""Tensor op forwards against independent oracles, and gradient integrity."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from crossmodal import autodiff as ad
from crossmodal.autodiff import Tensor
from crossmodal.errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    NumericError,
    ShapeError,
)


# -- independent oracles ----------------------------------------------------


def conv1d_oracle(x, kern, bias):
    """Nested loops: kernel tap outer, channel inner, sequential accumulation."""
    B, C, L = x.shape
    F, _, K = kern.shape
    pad = (K - 1) // 2
    xp = np.zeros((B, C, L + 2 * pad))
    xp[:, :, pad:pad + L] = x
    out = np.zeros((B, F, L))
    for b in range(B):
        for f in range(F):
            for l in range(L):
                acc = 0.0
                for t in range(K):
                    s = 0.0
                    for c in range(C):
                        s += kern[f, c, t] * xp[b, c, l + t]
                    acc += s
                out[b, f, l] = acc + bias[f]
    return out


def conv2d_oracle(x, kern, bias, stride=1):
    B, C, H, W = x.shape
    F, _, Kh, Kw = kern.shape
    ph, pw = (Kh - 1) // 2, (Kw - 1) // 2
    xp = np.zeros((B, C, H + 2 * ph, W + 2 * pw))
    xp[:, :, ph:ph + H, pw:pw + W] = x
    Ho = (H - 1) // stride + 1
    Wo = (W - 1) // stride + 1
    out = np.zeros((B, F, Ho, Wo))
    for b in range(B):
        for f in range(F):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for a in range(Kh):
                        for bb in range(Kw):
                            s = 0.0
                            for c in range(C):
                                s += kern[f, c, a, bb] * xp[b, c, i * stride + a,
                                                            j * stride + bb]
                            acc += s
                    out[b, f, i, j] = acc + bias[f]
    return out


def conv1d_oracle_at_once(x, kern, bias):
    """conv1d_oracle's scalar float ops, in its order, at every output
    position at once: fast enough for full-size layers."""
    B, C, L = x.shape
    F, _, K = kern.shape
    pad = (K - 1) // 2
    xp = np.zeros((B, C, L + 2 * pad))
    xp[:, :, pad:pad + L] = x
    acc = np.zeros((B, F, L))
    for t in range(K):
        s = np.zeros((B, F, L))
        for c in range(C):
            s += kern[None, :, c, t, None] * xp[:, None, c, t:t + L]
        acc += s
    return acc + bias[None, :, None]


def conv2d_oracle_at_once(x, kern, bias, stride=1):
    """conv2d_oracle's scalar float ops, in its order, at every output position at once."""
    B, C, H, W = x.shape
    F, _, Kh, Kw = kern.shape
    ph, pw = (Kh - 1) // 2, (Kw - 1) // 2
    xp = np.zeros((B, C, H + 2 * ph, W + 2 * pw))
    xp[:, :, ph:ph + H, pw:pw + W] = x
    Ho = (H - 1) // stride + 1
    Wo = (W - 1) // stride + 1
    acc = np.zeros((B, F, Ho, Wo))
    for a in range(Kh):
        for b in range(Kw):
            s = np.zeros((B, F, Ho, Wo))
            for c in range(C):
                window = xp[:, None, c, a:a + stride * (Ho - 1) + 1:stride,
                            b:b + stride * (Wo - 1) + 1:stride]
                s += kern[None, :, c, a, b, None, None] * window
            acc += s
    return acc + bias[None, :, None, None]


def maxpool1d_oracle(x, factor, g):
    """Ceil-mode pool by a -inf padded reshape, and its gradient g sent to
    each window's argmax: (output, input gradient)."""
    B, C, L = x.shape
    Lo = -(-L // factor)
    xp = np.full((B, C, Lo * factor), -np.inf)
    xp[:, :, :L] = x
    windows = xp.reshape(B, C, Lo, factor)
    arg = windows.argmax(axis=-1)  # first maximum wins ties
    dw = np.zeros((B, C, Lo, factor))
    np.put_along_axis(dw, arg[..., None], g[..., None], axis=-1)
    return windows.max(axis=-1), dw.reshape(B, C, Lo * factor)[:, :, :L].copy()


def maxpool2d_oracle(x, window, stride, g):
    """Floor-mode pool over a stack of every window offset in row-major order,
    and its gradient g scattered onto each window's argmax in output order:
    (output, input gradient)."""
    B, C, H, W = x.shape
    Ho, Wo = (H - window) // stride + 1, (W - window) // stride + 1
    tiles = np.empty((window * window, B, C, Ho, Wo))
    for a in range(window):
        for b in range(window):
            tiles[a * window + b] = x[:, :, a:a + stride * (Ho - 1) + 1:stride,
                                      b:b + stride * (Wo - 1) + 1:stride]
    arg = tiles.argmax(axis=0)
    pos_h = np.arange(Ho)[:, None] * stride + arg // window
    pos_w = np.arange(Wo)[None, :] * stride + arg % window
    dx = np.zeros((B, C, H * W))
    np.add.at(dx, (np.arange(B)[:, None, None, None], np.arange(C)[None, :, None, None],
                   pos_h * W + pos_w), g)
    return tiles.max(axis=0), dx.reshape(B, C, H, W)


# -- forward examples ---------------------------------------------------------


def test_fully_connected_identity():
    out = ad.fully_connected(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_fully_connected_dot_oracle():
    out = ad.fully_connected(Tensor([[1.0, 1.0]]), Tensor([[1.0], [1.0]]), Tensor([0.5]))
    assert np.array_equal(out.data, [[2.5]])


def test_fully_connected_bias_gradient_is_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    w = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    ad.sum_all(ad.fully_connected(x, w, b)).backward()
    assert np.array_equal(b.grad, np.full(2, 3.0))


def test_fully_connected_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.fully_connected(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))),
                           Tensor(np.zeros(2)))


def test_conv1d_identity_kernel():
    x = np.random.default_rng(0).normal(size=(2, 3, 7))
    out = ad.conv1d_same(Tensor(x), Tensor(np.ones((3, 3, 1)) * np.eye(3)[:, :, None]),
                         Tensor(np.zeros(3)))
    assert np.allclose(out.data, x)


def test_conv1d_365():
    out = ad.conv1d_same(Tensor(np.array([[[1.0, 2.0, 3.0]]])),
                         Tensor(np.ones((1, 1, 3))), Tensor(np.zeros(1)))
    assert np.array_equal(out.data, [[[3.0, 6.0, 5.0]]])


def test_conv1d_zero_input_gives_bias():
    out = ad.conv1d_same(Tensor(np.zeros((2, 3, 5))),
                         Tensor(np.random.default_rng(0).normal(size=(4, 3, 3))),
                         Tensor(np.array([1.0, -2.0, 0.5, 3.0])))
    assert np.array_equal(out.data, np.broadcast_to(
        np.array([1.0, -2.0, 0.5, 3.0])[None, :, None], (2, 4, 5)))


def test_conv1d_even_kernel_rejected():
    with pytest.raises(ConfigError):
        ad.conv1d_same(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))),
                       Tensor(np.zeros(1)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", [(1, 1, 4, 1, 1), (2, 3, 8, 2, 3), (2, 8, 8, 3, 5),
                                   (1, 300, 1, 16, 1), (1, 257, 1, 8, 1)])
def test_conv1d_matches_nested_loop_bitwise(seed, shape):
    B, C, L, F, K = shape
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(B, C, L))
    k = rng.normal(size=(F, C, K))
    b = rng.normal(size=F)
    out = ad.conv1d_same(Tensor(x), Tensor(k), Tensor(b)).data
    assert np.array_equal(out, conv1d_oracle(x, k, b))


@pytest.mark.parametrize("budget", [1, 48, 10**9],
                         ids=["sample_per_block", "ragged_last_block", "whole_batch"])
def test_conv1d_blocks_match_nested_loop_bitwise(monkeypatch, budget):
    # 12 row columns per sample: blocks of 1, of 4 and 1, and of all 5.
    monkeypatch.setattr(ad, "CONV1D_ROW", budget)
    rng = np.random.default_rng(7)
    x, k, b = rng.normal(size=(5, 4, 8)), rng.normal(size=(3, 4, 5)), rng.normal(size=3)
    out = ad.conv1d_same(Tensor(x), Tensor(k), Tensor(b)).data
    assert np.array_equal(out, conv1d_oracle(x, k, b))


@pytest.mark.parametrize("budget", [1, 10**9], ids=["sample_per_block", "whole_batch"])
@pytest.mark.parametrize("x_kind", ["normal", "zeros"])
def test_conv1d_kernel_longer_than_input_matches_nested_loop_bitwise(monkeypatch, budget,
                                                                      x_kind):
    # K=9 over L=3: every tap but the center covers part of the output or
    # none of it. On a zero input every product of a negative kernel is -0.0
    # and every bias is -0.0, yet each sum starts at +0.0 and stays there.
    monkeypatch.setattr(ad, "CONV1D_ROW", budget)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4, 3)) if x_kind == "normal" else np.zeros((3, 4, 3))
    k = -np.abs(rng.normal(size=(2, 4, 9)))
    b = np.array([-0.0, -0.0])
    out = ad.conv1d_same(Tensor(x), Tensor(k), Tensor(b)).data
    want = conv1d_oracle(x, k, b)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))
    assert not np.signbit(out[out == 0]).any()


@pytest.mark.parametrize("budget", [ad.CONV1D_ROW, 10**9],
                         ids=["default_budget", "whole_batch"])
def test_conv1d_batch_equals_its_samples_bitwise(monkeypatch, budget):
    # A sample's output bits do not depend on the batch it is embedded in:
    # the desk sound input layer (one sample per block) and the desk text
    # input layer (blocks of 14, 14 and 2 at the default row).
    monkeypatch.setattr(ad, "CONV1D_ROW", budget)
    rng = np.random.default_rng(5)
    for (B, C, L), (F, K) in [((5, 257, 500), (8, 11)), ((30, 300, 16), (16, 3))]:
        x, k, b = rng.normal(size=(B, C, L)), rng.normal(size=(F, C, K)), rng.normal(size=F)
        batch = ad.conv1d_same(Tensor(x), Tensor(k), Tensor(b)).data
        alone = np.concatenate([ad.conv1d_same(Tensor(x[i:i + 1]), Tensor(k), Tensor(b)).data
                                for i in range(B)])
        assert batch.tobytes() == alone.tobytes()


def test_conv1d_forward_copies_one_row_at_a_time(monkeypatch):
    # The desk text input layer: short signals are copied into one row per
    # block, so the forward holds the output, one block's (C, CONV1D_ROW)
    # row, and accumulators and einsum buffers of a few (F, CONV1D_ROW)
    # each, never a copy of the batch.
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(30, 300, 16)))
    k, b = Tensor(rng.normal(size=(16, 300, 3))), Tensor(rng.normal(size=16))
    bound = 8 * (30 * 16 * 16 + (300 + 8 * 16) * ad.CONV1D_ROW)

    def peak():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.conv1d_same(x, k, b)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    assert peak() < bound
    monkeypatch.setattr(ad, "CONV1D_ROW", 10**9)  # one row for the whole batch
    assert peak() > bound


def test_conv1d_forward_makes_no_padded_copy():
    # A signal long enough to fill a row is read in place. At C >> F the
    # input dwarfs the output; a padded copy of the input alone would
    # exceed the bound.
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 64, 200)))
    k, b = Tensor(rng.normal(size=(4, 64, 5))), Tensor(rng.normal(size=4))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.conv1d_same(x, k, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < x.data.nbytes // 2


def test_conv2d_identity_kernel():
    x = np.random.default_rng(0).normal(size=(1, 2, 5, 5))
    kern = np.zeros((2, 2, 1, 1))
    kern[0, 0] = kern[1, 1] = 1.0
    out = ad.conv2d_same(Tensor(x), Tensor(kern), Tensor(np.zeros(2)))
    assert np.allclose(out.data, x)


def test_conv2d_all_ones_center():
    out = ad.conv2d_same(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))),
                         Tensor(np.zeros(1)))
    assert out.data[0, 0, 1, 1] == 9.0


def test_conv2d_stride_halves_ceil():
    out = ad.conv2d_same(Tensor(np.zeros((1, 1, 7, 9))), Tensor(np.ones((1, 1, 3, 3))),
                         Tensor(np.zeros(1)), stride=2)
    assert out.data.shape == (1, 1, 4, 5)


def test_conv2d_stride_beyond_padded_extent():
    with pytest.raises(ShapeError):
        ad.conv2d_same(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))),
                       Tensor(np.zeros(1)), stride=9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("stride,x_shape,k_shape", [
    pytest.param(1, (2, 3, 8, 7), (2, 3, 3, 3), id="1"),
    pytest.param(2, (2, 3, 8, 7), (2, 3, 3, 3), id="2"),
    pytest.param(4, (1, 3, 23, 23), (2, 3, 11, 11), id="stride4-11x11"),
    pytest.param(1, (1, 384, 3, 3), (2, 384, 3, 3), id="384-channels"),
    pytest.param(1, (3, 2, 9, 8), (2, 2, 5, 5), id="batch3-5x5"),
])
def test_conv2d_matches_nested_loop_bitwise(seed, stride, x_shape, k_shape):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    k = rng.normal(size=k_shape)
    b = rng.normal(size=k_shape[0])
    out = ad.conv2d_same(Tensor(x), Tensor(k), Tensor(b), stride=stride).data
    assert np.array_equal(out, conv2d_oracle(x, k, b, stride=stride))


def test_maxpool1d_factor_one_is_identity():
    x = np.random.default_rng(0).normal(size=(2, 3, 5))
    assert np.array_equal(ad.maxpool1d(Tensor(x), 1).data, x)


def test_maxpool1d_window_max():
    out = ad.maxpool1d(Tensor(np.array([[[1.0, 5.0, 2.0, 4.0]]])), 2)
    assert np.array_equal(out.data, [[[5.0, 4.0]]])


def test_maxpool1d_500_pooled_by_5_three_times():
    t = Tensor(np.random.default_rng(0).normal(size=(1, 2, 500)))
    for _ in range(3):
        t = ad.maxpool1d(t, 5)
    assert t.data.shape == (1, 2, 4)


def test_maxpool1d_tie_routes_gradient_to_first():
    x = Tensor(np.array([[[3.0, 3.0, 1.0, 3.0]]]), requires_grad=True)
    ad.sum_all(ad.maxpool1d(x, 2)).backward()
    assert np.array_equal(x.grad, [[[1.0, 0.0, 0.0, 1.0]]])


def test_maxpool2d_overlapping_shapes():
    out = ad.maxpool2d(Tensor(np.zeros((1, 1, 57, 57))), 3, 2)
    assert out.data.shape == (1, 1, 28, 28)


def _pool_and_grad(op, x, *args):
    """Forward of op(x, *args) and the input gradient of a random upstream g."""
    t = Tensor(x, requires_grad=True)
    out = op(t, *args)
    g = np.random.default_rng(1).normal(size=out.shape)
    ad.sum_all(ad.mul(out, Tensor(g))).backward()
    return out.data, t.grad, g


def _pool_input(shape, ties):
    rng = np.random.default_rng(0)
    if ties:  # most windows tie, some on a maximum of +0 against -0
        return rng.choice([-0.0, 0.0, -1.0, 1.0], size=shape)
    return rng.normal(size=shape)


@pytest.mark.parametrize("ties", [False, True], ids=["normal", "ties"])
@pytest.mark.parametrize("shape,factor", [
    ((8, 8, 500), 5), ((8, 16, 100), 5), ((8, 16, 20), 5),  # desk sound
    ((8, 16, 16), 2), ((8, 16, 8), 2),  # desk text
    ((3, 4, 103), 5), ((2, 3, 7), 3), ((2, 2, 4), 5), ((1, 2, 1), 2),  # ragged tails
    ((2, 3, 5), 1),
])
def test_maxpool1d_matches_oracle_bitwise(shape, factor, ties):
    x = _pool_input(shape, ties)
    out, dx, g = _pool_and_grad(ad.maxpool1d, x, factor)
    want_out, want_dx = maxpool1d_oracle(x, factor, g)
    assert out.tobytes() == want_out.tobytes()
    assert dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("ties", [False, True], ids=["normal", "ties"])
@pytest.mark.parametrize("shape,window,stride", [
    ((8, 8, 32, 32), 2, 2), ((8, 16, 16, 16), 2, 2), ((8, 16, 8, 8), 2, 2),  # desk vision
    ((2, 3, 9, 7), 3, 3), ((2, 2, 7, 9), 2, 3),  # non-overlapping, floor drops a margin
])
def test_maxpool2d_non_overlapping_matches_oracle_bitwise(shape, window, stride, ties):
    x = _pool_input(shape, ties)
    out, dx, g = _pool_and_grad(ad.maxpool2d, x, window, stride)
    want_out, want_dx = maxpool2d_oracle(x, window, stride, g)
    assert out.tobytes() == want_out.tobytes()
    assert dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("ties", [False, True], ids=["normal", "ties"])
@pytest.mark.parametrize("shape", [(1, 96, 57, 57), (2, 16, 13, 13), (1, 2, 9, 7)])
def test_maxpool2d_overlapping_matches_oracle(shape, ties):
    # 3x3 stride 2, the paper's vision pool: an input that is the maximum of
    # three or more windows sums their gradients in offset order, the oracle
    # in output order, so only the last bits of such sums may differ. Each
    # element stays within 1e-15 of the sum of the magnitudes it adds.
    x = _pool_input(shape, ties)
    out, dx, g = _pool_and_grad(ad.maxpool2d, x, 3, 2)
    want_out, want_dx = maxpool2d_oracle(x, 3, 2, g)
    _, magnitude = maxpool2d_oracle(x, 3, 2, np.abs(g))
    assert out.tobytes() == want_out.tobytes()
    assert (np.abs(dx - want_dx) <= 1e-15 * magnitude).all()
    assert np.array_equal(dx == 0, want_dx == 0)  # each gradient reaches the same inputs


@pytest.mark.parametrize("op,args", [
    (ad.maxpool1d, (5,)), (ad.maxpool2d, (2, 2)), (ad.maxpool2d, (3, 2)),
    (ad.relu, ()), (ad.clamp_min, (0.5,)),
], ids=["maxpool1d", "maxpool2d", "maxpool2d-3x3s2", "relu", "clamp_min"])
@pytest.mark.parametrize("requires_grad", [False, True], ids=["no-grad", "grad"])
def test_pool_and_relu_forward_allocates_only_the_output(op, args, requires_grad):
    # No padded copy, tile stack, argmax or mask: the forward holds its
    # output, the finiteness check's one byte per output element and, over
    # strided views, up to three of numpy's 8192-element iterator buffers; a
    # training graph keeps nothing but the output.
    x = np.random.default_rng(0).normal(size=(4, 16, 64, 64))
    x = Tensor(x.reshape(4, 16, -1) if op is ad.maxpool1d else x, requires_grad=requires_grad)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = op(x, *args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (out._backward_fn is not None) == requires_grad
    assert peak - before < out.data.nbytes + out.data.size + 3 * 8 * 8192 + 4096
    assert current - before < out.data.nbytes + 4096


def test_relu_examples():
    assert np.array_equal(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert np.array_equal(ad.relu(Tensor([-5.0, -0.1])).data, [0.0, 0.0])
    x = Tensor(np.array([-1.0, 1.0]), requires_grad=True)
    ad.sum_all(ad.relu(x)).backward()
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_softmax_uniform_row():
    out = ad.softmax(Tensor(np.zeros((2, 5))))
    assert np.allclose(out.data, 0.2)


def test_softmax_ln2():
    out = ad.softmax(Tensor([[0.0, np.log(2.0)]]))
    assert np.allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 6))
    a = ad.softmax(Tensor(x)).data
    b = ad.softmax(Tensor(x + 7.25)).data
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_softmax_rows_sum_to_one(seed):
    x = np.random.default_rng(seed).normal(scale=5.0, size=(4, 11))
    out = ad.softmax(Tensor(x)).data
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    assert ((out > 0) & (out < 1)).all()


def test_cosine_parallel_orthogonal():
    a = Tensor([[2.0, 0.0]])
    assert ad.cosine_matrix(a, a).data[0, 0] == 1.0
    b = Tensor([[0.0, 1.0]])
    assert ad.cosine_matrix(Tensor([[1.0, 0.0]]), b).data[0, 0] == 0.0


def test_cosine_against_dot_norm_oracle():
    out = ad.cosine_matrix(Tensor([[1.0, 0.0]]), Tensor([[1.0, 1.0]])).data[0, 0]
    assert abs(out - 0.70710678) < 1e-8
    assert abs(out - 1.0 / np.sqrt(2.0)) < 1e-15


def test_cosine_zero_norm_raises():
    with pytest.raises(DegenerateInputError):
        ad.cosine_matrix(Tensor([[0.0, 0.0]]), Tensor([[1.0, 0.0]]))


def test_cosine_matrix_and_diagonal_reject_bad_shapes():
    with pytest.raises(ShapeError):
        ad.cosine_matrix(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
    with pytest.raises(ShapeError):
        ad.diagonal(Tensor(np.ones((2, 3))))


@pytest.mark.parametrize("seed", range(5))
def test_cosine_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(20, 8)) * rng.uniform(0.01, 100)
    b = rng.normal(size=(20, 8)) * rng.uniform(0.01, 100)
    out = ad.cosine_matrix(Tensor(a), Tensor(b)).data
    assert out.shape == (20, 20)
    assert (out >= -1.0).all() and (out <= 1.0).all()


# -- backward pass ------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    ad.sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_requires_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        ad.relu(x).backward()


def test_backward_accumulates_over_two_consumers():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 3)) + np.sign(rng.normal(size=(4, 3))) * 0.2
    r1 = rng.normal(size=(4, 3))
    r2 = rng.normal(size=(4, 3))
    x = Tensor(a, requires_grad=True)
    u = ad.relu(x)
    loss = ad.sum_all(ad.mul(u, Tensor(r1))) + ad.sum_all(ad.mul(u, Tensor(r2)))
    loss.backward()
    expected = (a > 0) * (r1 + r2)
    assert np.allclose(x.grad, expected, atol=1e-12)


def test_backward_returns_gradient_map_by_uid():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    loss = ad.sum_all(ad.relu(x))
    grads = ad.backward(loss)
    assert np.array_equal(grads[x.uid], [1.0, 0.0])


def test_nonfinite_forward_raises():
    with pytest.raises(NumericError):
        ad.log(Tensor([-1.0, 2.0]))
    with pytest.raises(NumericError):
        ad.mul(Tensor([1e308]), Tensor([1e308]))


def test_chained_fc_relu_fc_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(3, 5)))
    params = {
        "w1": Tensor(rng.normal(size=(5, 4)), requires_grad=True),
        "b1": Tensor(rng.normal(size=4), requires_grad=True),
        "w2": Tensor(rng.normal(size=(4, 2)), requires_grad=True),
        "b2": Tensor(rng.normal(size=2), requires_grad=True),
    }
    r = Tensor(rng.normal(size=(3, 2)))

    def build():
        h = ad.relu(ad.fully_connected(x, params["w1"], params["b1"]))
        return ad.sum_all(ad.mul(ad.fully_connected(h, params["w2"], params["b2"]), r))

    errors = ad.gradient_check(build, params, eps=1e-5)
    assert max(errors.values()) < 1e-5


def test_gradient_check_catches_corrupted_backward():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3)))

    def bad_scale(t):
        # deliberately wrong backward: claims gradient is half the true one
        return ad._node(t.data * 2.0, (t,), lambda g: (g * 1.0,), "bad_scale")

    def build():
        return ad.sum_all(bad_scale(ad.matmul(x, w)))

    errors = ad.gradient_check(build, {"w": w})
    assert errors["w"] > 1e-2


def test_identity_fc_gradient_check_near_exact():
    x = Tensor(np.eye(3))
    w = Tensor(np.eye(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)

    def build():
        return ad.sum_all(ad.fully_connected(x, w, b))

    errors = ad.gradient_check(build, {"w": w, "b": b})
    assert max(errors.values()) < 1e-9


# -- per-op finite-difference sweep -------------------------------------------


def op_gradient_cases(rng):
    """(name, params dict, build_fn) triples covering every differentiable op.

    Inputs are kept away from relu/max kinks so central differences are valid.
    """
    def away(shape, lo=0.2, hi=1.5):
        return rng.uniform(lo, hi, size=shape) * np.sign(rng.normal(size=shape))

    cases = []

    x = Tensor(away((3, 4)), requires_grad=True)
    y = Tensor(away((3, 4)), requires_grad=True)
    r = Tensor(rng.normal(size=(3, 4)))
    cases.append(("add_mul_neg", {"x": x, "y": y},
                  lambda: ad.sum_all(ad.mul(ad.add(x, ad.neg(y)), r))))

    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    xin = Tensor(rng.normal(size=(2, 4)))
    rfc = Tensor(rng.normal(size=(2, 3)))
    cases.append(("fully_connected", {"w": w, "b": b},
                  lambda: ad.sum_all(ad.mul(ad.fully_connected(xin, w, b), rfc))))

    xr = Tensor(away((2, 5)), requires_grad=True)
    rr = Tensor(rng.normal(size=(2, 5)))
    cases.append(("relu", {"x": xr}, lambda: ad.sum_all(ad.mul(ad.relu(xr), rr))))

    xl = Tensor(rng.uniform(0.2, 3.0, size=(2, 4)), requires_grad=True)
    rl = Tensor(rng.normal(size=(2, 4)))
    cases.append(("log_clamp", {"x": xl},
                  lambda: ad.sum_all(ad.mul(ad.log(ad.clamp_min(xl, 1e-12)), rl))))

    c1x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    c1k = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    c1b = Tensor(rng.normal(size=2), requires_grad=True)
    rc1 = Tensor(rng.normal(size=(2, 2, 6)))
    cases.append(("conv1d_same", {"x": c1x, "k": c1k, "b": c1b},
                  lambda: ad.sum_all(ad.mul(ad.conv1d_same(c1x, c1k, c1b), rc1))))

    c2x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
    c2k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    c2b = Tensor(rng.normal(size=3), requires_grad=True)
    rc2 = Tensor(rng.normal(size=(2, 3, 3, 3)))
    cases.append(("conv2d_same_stride2", {"x": c2x, "k": c2k, "b": c2b},
                  lambda: ad.sum_all(ad.mul(ad.conv2d_same(c2x, c2k, c2b, stride=2), rc2))))

    # Stride 1 runs the flat shifted-view backward: a kernel wider than the
    # map, and a sequence shorter than its padding.
    s1x = Tensor(rng.normal(size=(2, 2, 5, 4)), requires_grad=True)
    s1k = Tensor(rng.normal(size=(3, 2, 3, 5)), requires_grad=True)
    s1b = Tensor(rng.normal(size=3), requires_grad=True)
    rs1 = Tensor(rng.normal(size=(2, 3, 5, 4)))
    cases.append(("conv2d_same_stride1", {"x": s1x, "k": s1k, "b": s1b},
                  lambda: ad.sum_all(ad.mul(ad.conv2d_same(s1x, s1k, s1b), rs1))))

    k5x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    k5k = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    k5b = Tensor(rng.normal(size=2), requires_grad=True)
    rk5 = Tensor(rng.normal(size=(2, 2, 4)))
    cases.append(("conv1d_same_k5", {"x": k5x, "k": k5k, "b": k5b},
                  lambda: ad.sum_all(ad.mul(ad.conv1d_same(k5x, k5k, k5b), rk5))))

    p1 = Tensor(rng.uniform(-2, 2, size=(2, 2, 7)), requires_grad=True)
    rp1 = Tensor(rng.normal(size=(2, 2, 3)))
    cases.append(("maxpool1d_ragged", {"x": p1},
                  lambda: ad.sum_all(ad.mul(ad.maxpool1d(p1, 3), rp1))))

    p2 = Tensor(rng.uniform(-2, 2, size=(2, 2, 5, 5)), requires_grad=True)
    rp2 = Tensor(rng.normal(size=(2, 2, 2, 2)))
    cases.append(("maxpool2d_overlap", {"x": p2},
                  lambda: ad.sum_all(ad.mul(ad.maxpool2d(p2, 3, 2), rp2))))

    xs = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    rs = Tensor(rng.normal(size=(3, 5)))
    cases.append(("softmax", {"x": xs},
                  lambda: ad.sum_all(ad.mul(ad.softmax(xs), rs))))

    ca = Tensor(rng.normal(size=(3, 6)) + 0.1, requires_grad=True)
    cb = Tensor(rng.normal(size=(5, 6)) + 0.1, requires_grad=True)
    rc = Tensor(rng.normal(size=(3, 5)))
    cases.append(("cosine_matrix", {"a": ca, "b": cb},
                  lambda: ad.sum_all(ad.mul(ad.cosine_matrix(ca, cb), rc))))

    xd = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    rd = Tensor(rng.normal(size=(2, 2)))
    cases.append(("diagonal_reshape", {"x": xd},
                  lambda: ad.sum_all(ad.mul(ad.reshape(ad.diagonal(xd), (2, 2)), rd))))

    return cases


@pytest.mark.parametrize("seed", range(3))
def test_every_op_passes_gradient_check(seed):
    rng = np.random.default_rng(seed)
    for name, params, build in op_gradient_cases(rng):
        errors = ad.gradient_check(build, params, eps=1e-5)
        worst = max(errors.values())
        assert worst < 1e-4, f"{name} (seed {seed}): max relative error {worst}"


def test_determinism_bitwise_repeat():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(2, 3, 20)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        out = ad.maxpool1d(ad.relu(ad.conv1d_same(x, k, b)), 2)
        loss = ad.sum_all(out)
        loss.backward()
        return loss.data.copy(), x.grad.copy(), k.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("op,x_shape,k_shape", [
    (ad.conv1d_same, (2, 3, 20), (4, 3, 5)),
    (ad.conv2d_same, (2, 3, 9, 8), (4, 3, 3, 5)),
], ids=["conv1d_same", "conv2d_same"])
def test_conv_data_input_gets_same_kernel_grad(op, x_shape, k_shape):
    # A data batch (no requires_grad) gets no dx, and the kernel and bias
    # gradients are bitwise those of a run where the input needs one.
    rng = np.random.default_rng(7)
    x, k, b = rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0])
    grads = []
    for x_needs_grad in (True, False):
        xt = Tensor(x, requires_grad=x_needs_grad)
        kt, bt = Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
        ad.sum_all(ad.relu(op(xt, kt, bt))).backward()
        assert (xt.grad is not None) == x_needs_grad
        grads.append((kt.grad, bt.grad))
    for with_dx, without_dx in zip(*grads):
        assert np.array_equal(with_dx, without_dx)


def conv_backward_einsum(x, kern, g):
    """Stride-1 dx and dk as per-tap einsums over the padded input: the
    formulas the flat shifted-view GEMMs replaced."""
    pads = [(k - 1) // 2 for k in kern.shape[2:]]
    S = x.shape[2:]
    xp = np.pad(x, [(0, 0), (0, 0), *[(p, p) for p in pads]])
    dk, dxp = np.empty_like(kern), np.zeros_like(xp)
    sub = "lm"[:len(S)]
    for tap in np.ndindex(*kern.shape[2:]):
        win = (slice(None), slice(None), *(slice(t, t + n) for t, n in zip(tap, S)))
        dk[(slice(None), slice(None), *tap)] = np.einsum(f"bf{sub},bc{sub}->fc", g, xp[win])
        dxp[win] += np.einsum(f"bf{sub},fc->bc{sub}", g, kern[(slice(None), slice(None), *tap)])
    inner = (slice(None), slice(None), *(slice(p, p + n) for p, n in zip(pads, S)))
    return dxp[inner], dk


@pytest.mark.parametrize("op,x_shape,k_shape,x_needs_grad", [
    (ad.conv1d_same, (8, 257, 500), (8, 257, 11), False),  # the sound input layer
    (ad.conv1d_same, (8, 16, 16), (16, 16, 3), True),  # a desk text layer
    (ad.conv2d_same, (8, 16, 8, 8), (16, 16, 3, 3), True),  # 36 padding rows per 64
], ids=["sound_input", "text", "map_8x8"])
def test_conv_backward_matches_per_tap_einsum(op, x_shape, k_shape, x_needs_grad):
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=x_shape), requires_grad=x_needs_grad)
    k = Tensor(rng.normal(size=k_shape), requires_grad=True)
    b = Tensor(rng.normal(size=k_shape[0]), requires_grad=True)
    g = rng.normal(size=(x_shape[0], k_shape[0], *x_shape[2:]))
    ad.sum_all(ad.mul(op(x, k, b), Tensor(g))).backward()
    want_dx, want_dk = conv_backward_einsum(x.data, k.data, g)
    got = [(k.grad, want_dk)] + ([(x.grad, want_dx)] if x_needs_grad else [])
    for have, want in got:
        assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(b.grad, g.sum(axis=(0, *range(2, g.ndim))))


@pytest.mark.parametrize("op,x_shape,k_shape", [
    (ad.conv1d_same, (4, 16, 200), (8, 16, 5)),
    (ad.conv2d_same, (2, 8, 30, 30), (4, 8, 5, 5)),
], ids=["conv1d_same", "conv2d_same"])
def test_conv_node_retains_no_padded_input(op, x_shape, k_shape):
    # The backward rebuilds the padded input from x, so the node keeps only
    # its output alive: no padded copy, no window buffer.
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=x_shape))
    k = Tensor(rng.normal(size=k_shape), requires_grad=True)
    b = Tensor(rng.normal(size=k_shape[0]), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op(x, k, b)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out._backward_fn is not None
    assert retained < out.data.nbytes + x.data.nbytes // 2


def test_kernel_gradient_bits_do_not_follow_the_blas_thread_count():
    # The sound input layer's kernel gradient is one long GEMM reduction,
    # which a multithreaded OpenBLAS splits by thread. Importing the package
    # pins numpy's OpenBLAS to one thread, so the bits hold at any setting.
    import crossmodal
    if crossmodal.BLAS_THREADS is None:
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    code = ("import hashlib, numpy as np, crossmodal\n"
            "from crossmodal import autodiff as ad\n"
            "rng = np.random.default_rng(0)\n"
            "x = ad.Tensor(rng.normal(size=(8, 257, 500)))\n"
            "k = ad.Tensor(rng.normal(size=(8, 257, 11)), requires_grad=True)\n"
            "ad.sum_all(ad.conv1d_same(x, k, ad.Tensor(np.zeros(8)))).backward()\n"
            "print(crossmodal.BLAS_THREADS, hashlib.sha256(k.grad.tobytes()).hexdigest())\n")
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    assert runs[0].stdout.split()[0] == "1"
    assert runs[0].stdout == runs[1].stdout


# -- conv forwards split over the conv workers ----------------------------


@pytest.fixture
def conv_workers(monkeypatch):
    """use(n) runs every conv forward split over a pool of n workers, with
    threads switched often so parts interleave."""
    monkeypatch.setattr(ad, "CONV_SPLIT_MACS", 0)
    pools = []

    def use(workers):
        pools.append(ad._start_pool(workers))
        monkeypatch.setattr(ad, "CONV_WORKERS", workers)
        monkeypatch.setattr(ad, "_POOL", pools[-1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield use
    finally:
        sys.setswitchinterval(interval)
        for pool in pools:
            if pool is not None:
                pool.shutdown()


def _conv(x, k, b, stride):
    """The op's output and the oracle's, computed at once."""
    if x.ndim == 3:
        return ad.conv1d_same(Tensor(x), Tensor(k), Tensor(b)).data, conv1d_oracle_at_once(x, k, b)
    return (ad.conv2d_same(Tensor(x), Tensor(k), Tensor(b), stride=stride).data,
            conv2d_oracle_at_once(x, k, b, stride=stride))


@pytest.mark.parametrize("x_shape,k_shape,stride", [
    ((2, 3, 8), (2, 3, 3), 1), ((3, 4, 3), (2, 4, 9), 1), ((1, 5, 1), (3, 5, 1), 1),
    ((2, 3, 8, 7), (2, 3, 3, 3), 2), ((1, 3, 23, 23), (2, 3, 11, 11), 4),
])
def test_oracles_at_once_match_the_scalar_loops_bitwise(x_shape, k_shape, stride):
    # Negative kernels on a zero input with a -0.0 bias also check signed zeros.
    rng = np.random.default_rng(8)
    k = -np.abs(rng.normal(size=k_shape))
    for x, b in [(rng.normal(size=x_shape), rng.normal(size=k_shape[0])),
                 (np.zeros(x_shape), np.full(k_shape[0], -0.0))]:
        if len(x_shape) == 3:
            want, got = conv1d_oracle(x, k, b), conv1d_oracle_at_once(x, k, b)
        else:
            want = conv2d_oracle(x, k, b, stride=stride)
            got = conv2d_oracle_at_once(x, k, b, stride=stride)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("x_shape,k_shape,stride", [
    # the conv1d oracle tests' shapes: L = 1, blocks, K > L at B = 1 and B > 1
    *[pytest.param((B, C, L), (F, C, K), 1, id=f"1d-{B}x{C}x{L}-{F}x{K}")
      for B, C, L, F, K in [(1, 1, 4, 1, 1), (2, 3, 8, 2, 3), (2, 8, 8, 3, 5), (1, 300, 1, 16, 1),
                            (1, 257, 1, 8, 1), (7, 3, 1, 2, 1), (5, 4, 8, 3, 5), (3, 4, 3, 2, 9),
                            (1, 4, 3, 2, 9)]],
    # the desk sound and text input layers, and the paper's 1-D layers at B = 1
    pytest.param((8, 257, 500), (8, 257, 11), 1, id="desk-sound-input-B8"),
    pytest.param((30, 257, 500), (8, 257, 11), 1, id="desk-sound-input-B30"),
    pytest.param((30, 300, 16), (16, 300, 3), 1, id="desk-text-input-B30"),
    pytest.param((1, 257, 50), (128, 257, 11), 1, id="paper-sound-conv1"),
    pytest.param((1, 128, 20), (256, 128, 5), 1, id="paper-sound-conv2"),
    pytest.param((1, 256, 4), (256, 256, 3), 1, id="paper-sound-conv3"),
    pytest.param((1, 300, 16), (300, 300, 3), 1, id="paper-text-conv"),
    # the conv2d oracle tests' shapes, a 1x1 kernel on a one-column map
    pytest.param((2, 3, 8, 7), (2, 3, 3, 3), 1, id="2d-stride1"),
    pytest.param((2, 3, 8, 7), (2, 3, 3, 3), 2, id="2d-stride2"),
    pytest.param((1, 3, 23, 23), (2, 3, 11, 11), 4, id="2d-stride4-11x11"),
    pytest.param((1, 384, 3, 3), (2, 384, 3, 3), 1, id="2d-384-channels"),
    pytest.param((3, 2, 9, 8), (2, 2, 5, 5), 1, id="2d-batch3-5x5"),
    pytest.param((1, 4, 5, 1), (2, 4, 1, 1), 1, id="2d-1x1-one-column"),
    # the desk image conv2 at B = 30, and the paper's 2-D layers at a small map
    pytest.param((30, 8, 16, 16), (16, 8, 3, 3), 1, id="desk-image-conv2-B30"),
    pytest.param((1, 3, 35, 35), (96, 3, 11, 11), 4, id="paper-image-conv1"),
    pytest.param((1, 96, 7, 7), (256, 96, 5, 5), 1, id="paper-image-conv2"),
    pytest.param((1, 256, 5, 5), (384, 256, 3, 3), 1, id="paper-image-conv3"),
    pytest.param((1, 384, 5, 5), (384, 384, 3, 3), 1, id="paper-image-conv4"),
    pytest.param((1, 384, 5, 5), (256, 384, 3, 3), 1, id="paper-image-conv5"),
])
def test_conv_forward_bits_do_not_follow_the_worker_count(conv_workers, x_shape, k_shape,
                                                          stride):
    # A part decides only which thread computes an output element, so every
    # worker count gives the nested loop's bits.
    rng = np.random.default_rng(11)
    x, k, b = rng.normal(size=x_shape), rng.normal(size=k_shape), rng.normal(size=k_shape[0])
    outs = []
    for workers in (1, 2, 3):
        conv_workers(workers)
        out, want = _conv(x, k, b, stride)
        outs.append(out.tobytes())
    assert outs == [want.tobytes()] * 3


@pytest.mark.parametrize("failing", [0, 2], ids=["caller's-part", "pool's-part"])
def test_a_failing_part_reaches_the_caller_after_every_part(conv_workers, failing):
    conv_workers(2)
    done = []

    def fn(lo, hi):
        if lo == failing:
            raise ValueError(f"part {lo}:{hi}")
        time.sleep(0.05)
        done.append((lo, hi))

    with pytest.raises(ValueError, match=f"part {failing}:{failing + 2}"):
        ad._split(4, 0, fn)
    assert done == [(2 - failing, 4 - failing)]
    # The pool still serves the next call.
    rng = np.random.default_rng(2)
    out, want = _conv(rng.normal(size=(1, 3, 8, 7)), rng.normal(size=(2, 3, 3, 3)),
                      rng.normal(size=2), 1)
    assert np.array_equal(out, want)


def test_one_contiguous_part_per_worker_the_first_on_the_caller(conv_workers):
    conv_workers(3)
    done = {}
    ad._split(16, 0, lambda lo, hi: done.update(
        {(lo, hi): threading.current_thread() is threading.main_thread()}))
    assert done == {(0, 5): True, (5, 10): False, (10, 16): False}


def test_a_batch_runs_on_the_calling_thread(conv_workers, monkeypatch):
    conv_workers(2)
    monkeypatch.setattr(ad, "_split", None)  # any split would fail
    rng = np.random.default_rng(3)
    for x_shape, k_shape in [((2, 8, 40), (4, 8, 5)), ((2, 3, 9, 9), (4, 3, 3, 3))]:
        out, want = _conv(rng.normal(size=x_shape), rng.normal(size=k_shape),
                          rng.normal(size=k_shape[0]), 1)
        assert np.array_equal(out, want)


def test_a_pool_of_one_worker_starts_no_thread(conv_workers, monkeypatch):
    conv_workers(1)

    def start(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", start)
    rng = np.random.default_rng(4)
    for x_shape, k_shape in [((1, 8, 40), (4, 8, 5)), ((3, 8, 40), (4, 8, 5)),
                             ((1, 3, 9, 9), (4, 3, 3, 3)), ((3, 3, 9, 9), (4, 3, 3, 3))]:
        out, want = _conv(rng.normal(size=x_shape), rng.normal(size=k_shape),
                          rng.normal(size=k_shape[0]), 1)
        assert np.array_equal(out, want)


def _conv_in_child(args, queue):
    queue.put(_conv(*args)[0])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_splits_on_its_own_pool(conv_workers):
    # The child inherits the pool object but none of its threads.
    conv_workers(2)
    rng = np.random.default_rng(6)
    args = (rng.normal(size=(1, 3, 8, 7)), rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2), 1)
    parent, want = _conv(*args)  # the pool's threads are running now
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_conv_in_child, args=(args, queue))
    child.start()
    try:
        got = queue.get(timeout=30)  # drained before the join
        child.join(30)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    assert got.tobytes() == parent.tobytes() == want.tobytes()


def test_split_conv1d_forward_holds_no_copy_of_the_sample(conv_workers):
    # The sound input layer at B = 1 over two workers: each part reads the
    # sample in place, so the forward holds the output and, per worker, at
    # most one tap's (F, L) sum and numpy's 8192-element iterator buffer; a
    # copy of the sample would be four times the bound.
    conv_workers(2)
    rng = np.random.default_rng(0)
    (B, C, L), (F, K) = (1, 257, 500), (8, 11)
    x = Tensor(rng.normal(size=(B, C, L)))
    k, b = Tensor(rng.normal(size=(F, C, K))), Tensor(rng.normal(size=F))
    bound = 8 * (F * L + 2 * (F * L + 8192))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ad.conv1d_same(x, k, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < bound
