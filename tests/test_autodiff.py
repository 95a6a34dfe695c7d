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
