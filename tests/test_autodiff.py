import numpy as np
import pytest

from radarpose.autodiff import Tensor, amax, concat, conv2d, gather_rows, maxpool2d, mse


def numgrad(f, x, h=1e-6):
    """Central finite differences of scalar f() w.r.t. in-place perturbed x."""
    g = np.zeros_like(x)
    xf, gf = x.reshape(-1), g.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = f()
        xf[i] = orig - h
        fm = f()
        xf[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_grads(build, arrays, rtol=1e-6, atol=1e-9):
    """build(tensors...) -> scalar Tensor; compares backward vs numgrad."""
    tensors = [Tensor(a) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for t, a in zip(tensors, arrays):
        num = numgrad(lambda: float(build(*[Tensor(x) for x in arrays]).data), a)
        np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=atol)


def test_add_broadcast_grad():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4,))
    check_grads(lambda x, y: (x + y).mean(), [a, b])


def test_sub_and_mul_grad():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    check_grads(lambda x, y: ((x - y) * x).mean(), [a, b])


def test_matmul_2d_grad():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 6))
    check_grads(lambda x, y: (x @ y).mean(), [a, b])


def test_matmul_broadcast_param_grad():
    rng = np.random.default_rng(3)
    a, w = rng.normal(size=(2, 5, 3)), rng.normal(size=(3, 4))
    check_grads(lambda x, y: (x @ y).mean(), [a, w])


def test_matmul_batched_grad():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 3, 3))
    check_grads(lambda x, y: (x @ y).mean(), [a, b])


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


def test_relu_grad_and_zero_subgradient():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    check_grads(lambda x: x.relu().mean(), [a])
    t = Tensor(np.array([[0.0, -1.0, 2.0]]))
    out = t.relu().mean()
    out.backward()
    np.testing.assert_array_equal(t.grad, [[0.0, 0.0, 1.0 / 3.0]])


def test_reshape_and_concat_grad():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(2, 6)), rng.normal(size=(2, 3))
    check_grads(lambda x, y: concat([x.reshape((2, 6)), y], axis=1).mean(), [a, b])


def test_amax_grad_routes_to_argmax():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 4))
    starts = np.array([0, 5, 6])  # segments of 5, 1 and 6 rows
    check_grads(lambda x: amax(x, starts).mean(), [a])
    np.testing.assert_array_equal(amax(Tensor(a), starts).data, [a[:5].max(0), a[5], a[6:].max(0)])


def test_amax_tie_takes_first():
    t = Tensor(np.array([[2.0], [2.0], [1.0]]))
    amax(t, np.array([0])).mean().backward()
    np.testing.assert_array_equal(t.grad, [[1.0], [0.0], [0.0]])


def test_segment_amax_ties_send_the_gradient_to_the_lowest_row_only():
    t = Tensor(np.array([
        [1.0, 5.0], [3.0, 5.0], [3.0, 2.0],  # segment 0: both columns tie
        [7.0, 7.0], [7.0, 7.0],  # segment 1: two identical rows
    ]))
    out = amax(t, np.array([0, 3]))
    np.testing.assert_array_equal(out.data, [[3.0, 5.0], [7.0, 7.0]])
    (out * np.array([[1.0, 2.0], [3.0, 4.0]])).mean().backward()
    np.testing.assert_array_equal(t.grad, [[0.0, 0.5], [0.25, 0.0], [0.0, 0.0], [0.75, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("starts", [[], [1, 2], [0, 2, 2], [0, 3, 1], [0, 4]])
def test_amax_rejects_empty_or_unordered_segments(starts):
    with pytest.raises(ValueError, match="non-empty segments"):
        amax(Tensor(np.zeros((4, 2))), np.array(starts, dtype=int))


def test_gather_rows_grad_scatters_into_zeros():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2, 4, 3))
    rows = np.array([0, 2, 3, 5])
    check_grads(lambda x: (gather_rows(x, rows) * gather_rows(x, rows)).mean(), [a])
    np.testing.assert_array_equal(gather_rows(Tensor(a), rows).data, a.reshape(8, 3)[rows])
    t = Tensor(a)
    gather_rows(t, rows).mean().backward()
    assert not t.grad.reshape(8, 3)[[1, 4, 6, 7]].any()


# ---------------------------------------------------------------------------
# reference kernels: the earlier forms that the kernels must match bit for bit
# ---------------------------------------------------------------------------

def reference_conv2d(x, w, b):
    """conv2d padded with ``np.pad``; otherwise the same im2col and GEMMs."""
    batch, c_in, h, wd = x.data.shape
    c_out, _, kh, kw = w.data.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * h * wd, c_in * kh * kw)
    wmat = w.data.reshape(c_out, -1)
    out_data = (cols @ wmat.T + b.data).reshape(batch, h, wd, c_out).transpose(0, 3, 1, 2)
    out = Tensor(out_data, _parents=(x, w, b))

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(batch * h * wd, c_out)
        gw = (g2.T @ cols).reshape(w.data.shape)
        gb = g2.sum(axis=0)
        gwin = (g2 @ wmat).reshape(batch, h, wd, c_in, kh, kw).transpose(4, 5, 0, 3, 2, 1)
        gx_t = np.zeros((batch, c_in, wd + 2 * pw, h + 2 * ph))
        for di in range(kh):
            for dj in range(kw):
                gx_t[:, :, dj : dj + wd, di : di + h] += gwin[di, dj]
        return gx_t[:, :, pw : pw + wd, ph : ph + h].transpose(0, 1, 3, 2), gw, gb

    out._backward = backward
    return out


def reference_maxpool2d(x, size=2):
    """maxpool2d through reshape copies, ``argmax`` and take/put_along_axis."""
    batch, ch, h, w = x.data.shape
    h2, w2 = h // size, w // size
    crop = x.data[:, :, : h2 * size, : w2 * size]
    windows = crop.reshape(batch, ch, h2, size, w2, size).transpose(0, 1, 2, 4, 3, 5)
    flat = windows.reshape(batch, ch, h2, w2, size * size)
    idx = np.argmax(flat, axis=-1)
    out = Tensor(np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], _parents=(x,))

    def backward(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        gwin = gflat.reshape(batch, ch, h2, w2, size, size).transpose(0, 1, 2, 4, 3, 5)
        gx = np.zeros_like(x.data)
        gx[:, :, : h2 * size, : w2 * size] = gwin.reshape(batch, ch, h2 * size, w2 * size)
        return (gx,)

    out._backward = backward
    return out


def _channels_last(a):
    """``a`` with the same values, stored (B, H, W, C) like conv2d -> relu output."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _pool_input(case, rng):
    shape = (3, 4, 7, 5) if case == "odd" else (3, 4, 12, 6)
    x = rng.normal(size=shape)
    if case == "ties":
        x = rng.integers(-1, 2, size=shape).astype(float)
    elif case == "relu":  # many all-zero windows, with signed zeros among the ties
        x = np.maximum(x - 1.0, 0.0)
        x[(x == 0) & (rng.uniform(size=shape) < 0.3)] = -0.0
    elif case == "nan":
        x[0, 0, 1, 1] = np.nan  # last offset of a 2x2 window, second row of a 3x3 one
        x[1, 2, 4, 0] = x[1, 2, 5, 1] = np.nan  # two NaNs in one window
        x[2, 3, 0, 0] = np.nan  # first offset
    return x


@pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("case", ["random", "ties", "relu", "nan", "odd"])
def test_maxpool2d_is_bitwise_the_argmax_oracle(case, size, layout):
    rng = np.random.default_rng(31)
    x = _pool_input(case, rng)
    if layout == "channels_last":
        x = _channels_last(x)
    out, ref = maxpool2d(Tensor(x), size), reference_maxpool2d(Tensor(x), size)
    assert out.shape == ref.shape
    assert out.data.tobytes() == ref.data.tobytes()
    stored = out.data.transpose(0, 2, 3, 1) if layout == "channels_last" else out.data
    assert stored.flags.c_contiguous
    g = rng.normal(size=out.shape)
    (gx,), (gx_ref,) = out._backward(g), ref._backward(g)
    assert gx.shape == x.shape
    assert gx.tobytes() == gx_ref.tobytes()
    if case == "nan":
        assert np.isnan(out.data).sum() == 3


def test_maxpool2d_rejects_a_window_below_one():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    for size in (0, -2):
        with pytest.raises(ValueError, match="window must be >= 1"):
            maxpool2d(x, size)
    assert maxpool2d(x, 1).data.tobytes() == x.data.tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
@pytest.mark.parametrize("shape, c_out, kernel", [
    ((10, 1, 64, 4), 16, (3, 3)), ((10, 16, 32, 2), 32, (3, 3)), ((2, 3, 5, 4), 4, (1, 1)), ((2, 3, 5, 4), 4, (5, 3)),
])
def test_conv2d_is_bitwise_the_np_pad_oracle(shape, c_out, kernel, layout):
    rng = np.random.default_rng(32)
    x = rng.normal(size=shape)
    if layout == "channels_last":
        x = _channels_last(x)
    w = rng.normal(size=(c_out, shape[1], *kernel))
    b = rng.normal(size=c_out)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b))
    ref = reference_conv2d(Tensor(x), Tensor(w), Tensor(b))
    assert out.data.tobytes() == ref.data.tobytes()
    g = rng.normal(size=out.shape)
    for got, want in zip(out._backward(g), ref._backward(g)):
        assert got.tobytes() == want.tobytes()


def test_conv2d_grad():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 6, 4))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=(4,))
    check_grads(lambda a, c, d: conv2d(a, c, d).mean(), [x, w, b], rtol=1e-5, atol=1e-8)


def _col2im_loop_input_grad(g, x, w):
    """The conv2d input gradient as a kh x kw loop over the (B, C, H, W) layout."""
    batch, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(batch * h * wd, c_out)
    gwin = (g2 @ w.reshape(c_out, -1)).reshape(batch, h, wd, c_in, kh, kw)
    gx_p = np.zeros((batch, c_in, h + 2 * ph, wd + 2 * pw))
    for di in range(kh):
        for dj in range(kw):
            gx_p[:, :, di : di + h, dj : dj + wd] += gwin[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return gx_p[:, :, ph : ph + h, pw : pw + wd]


@pytest.mark.parametrize("shape, c_out", [((10, 1, 64, 4), 16), ((10, 16, 32, 2), 32)])
def test_conv2d_input_grad_is_bitwise_the_col2im_loop(shape, c_out):
    rng = np.random.default_rng(12)
    x = rng.normal(size=shape)
    w = rng.normal(size=(c_out, shape[1], 3, 3))
    out = conv2d(Tensor(x), Tensor(w), Tensor(rng.normal(size=c_out)))
    g = rng.normal(size=out.shape)
    gx, _, _ = out._backward(g)
    assert gx.shape == shape
    assert gx.tobytes() == _col2im_loop_input_grad(g, x, w).tobytes()


def test_conv2d_same_padding_shape_and_validation():
    x = Tensor(np.zeros((1, 2, 8, 4)))
    w = Tensor(np.zeros((5, 2, 3, 3)))
    b = Tensor(np.zeros(5))
    assert conv2d(x, w, b).shape == (1, 5, 8, 4)
    with pytest.raises(ValueError):
        conv2d(x, Tensor(np.zeros((5, 3, 3, 3))), b)
    with pytest.raises(ValueError):
        conv2d(x, Tensor(np.zeros((5, 2, 2, 2))), Tensor(np.zeros(5)))


def test_maxpool2d_grad_and_floor_crop():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 2, 5, 4))  # odd height exercises the crop
    check_grads(lambda a: maxpool2d(a, 2).mean(), [x])
    assert maxpool2d(Tensor(x), 2).shape == (2, 2, 2, 2)


def test_mse_matches_manual_sum():
    rng = np.random.default_rng(10)
    a, b = rng.normal(size=(7,)).reshape(1, 7), rng.normal(size=(1, 7))
    out = mse(Tensor(a), Tensor(b))
    manual = sum((a[0, i] - b[0, i]) ** 2 for i in range(7)) / 7
    assert float(out.data) == pytest.approx(manual, rel=1e-12)
    check_grads(lambda x, y: mse(x, y), [a, b])


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_diamond_graph_accumulates():
    # y = x*x + x used twice: dy/dx = 2x + 1
    x = Tensor(np.array([[3.0]]))
    y = (x * x + x).mean()
    y.backward()
    np.testing.assert_allclose(x.grad, [[7.0]])


def test_composite_network_grad():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 6, 3))
    w1 = rng.normal(size=(3, 8)) * 0.5
    b1 = rng.normal(size=(8,)) * 0.1
    w2 = rng.normal(size=(8, 4)) * 0.5
    target = rng.normal(size=(2, 4))

    def build(xt, w1t, b1t, w2t):
        h = (gather_rows(xt, np.array([0, 2, 3, 6, 7, 8, 11])) @ w1t + b1t).relu()
        pooled = amax(h, np.array([0, 3]))
        return mse(pooled @ w2t, target)

    check_grads(build, [x, w1, b1, w2], rtol=1e-5, atol=1e-8)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2))).backward()
