"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: every operation records its parents and a closure that routes
the upstream gradient. Exactly the ops the skeleton-regression networks
need are provided (dense/batched matmul, broadcast add/mul, ReLU, reshape,
concat, row gather, segment max over rows, same-padded conv2d, 2x2-style max
pooling, mean), plus ``dense``: a whole dense layer, product, bias and
optional ReLU, as one node.

Conventions that the gradient checks rely on:
  * everything is float64
  * ReLU subgradient at 0 is 0
  * max/pool ties route the gradient to the first (lowest-index) maximum

The backward sweep allocates no zero gradients: a node takes its first
incoming gradient as is and sums later ones out of place. A ``.grad`` may
therefore be a view of another node's gradient; treat it as read-only.
The sweep frees as it goes: once a node's backward closure has run, the node
drops its ``.grad`` and the closure (with the arrays it saved). Leaves keep
their gradients, and every node keeps its ``_parents``. A second
``backward()`` on a swept graph raises ``ValueError``.

Inside :func:`no_tape` the ops build no graph: every result is a node with no
parents and no closure, so each intermediate array is freed as soon as
nothing refers to it. Inference runs there.
"""

from __future__ import annotations

import contextlib

import numpy as np

_recording = True


@contextlib.contextmanager
def no_tape():
    """Build no tape inside the block: op results get no parents and no closure."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Array node in the computation graph."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    # ---- graph construction ------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)

        def backward(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return _node(self.data + other.data, (self, other), backward)

    def __sub__(self, other):
        other = _as_tensor(other)

        def backward(g):
            return _unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)

        return _node(self.data - other.data, (self, other), backward)

    def __mul__(self, other):
        other = _as_tensor(other)

        def backward(g):
            return (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            )

        return _node(self.data * other.data, (self, other), backward)

    def __matmul__(self, other):
        other = _as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")

        def backward(g):
            ga = np.matmul(g, np.swapaxes(other.data, -1, -2))
            gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
            return _unbroadcast(ga, self.shape), _unbroadcast(gb, other.shape)

        return _node(np.matmul(self.data, other.data), (self, other), backward)

    def relu(self):
        mask = self.data > 0
        return _node(np.where(mask, self.data, 0.0), (self,), lambda g: (g * mask,))

    def reshape(self, shape):
        return _node(self.data.reshape(shape), (self,), lambda g: (g.reshape(self.shape),))

    def mean(self):
        return _node(self.data.mean(), (self,), lambda g: (np.full(self.shape, float(g) / self.data.size),))

    # ---- backprop ----------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

        if any(node._parents and node._backward is None for node in topo):
            raise ValueError("backward() already ran on this graph, which freed its closures; build it again")
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            # the node is done: free its gradient and the arrays its closure saved
            node.grad = node._backward = None
            for parent, g in zip(node._parents, grads):
                # out of place: closures may hand back views of one another
                parent.grad = g if parent.grad is None else parent.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents: tuple, backward) -> Tensor:
    """An op's result; it joins the tape, with ``backward``, only while recording."""
    if _recording:
        return Tensor(data, parents, backward)
    return Tensor(data)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def gather_rows(t: Tensor, rows: np.ndarray) -> Tensor:
    """Rows ``rows`` of ``t`` with its leading axes flattened: (..., C) -> (len(rows), C).

    ``rows`` must not repeat; the gradient is scattered back into zeros.
    """
    t = _as_tensor(t)
    width = t.data.shape[-1]

    def backward(g):
        full = np.zeros((t.data.size // width, width))
        full[rows] = g
        return (full.reshape(t.shape),)

    return _node(t.data.reshape(-1, width)[rows], (t,), backward)


def amax(t: Tensor, starts: np.ndarray) -> Tensor:
    """Segment max over rows: (M, C) -> (len(starts), C).

    Segment s runs from row ``starts[s]`` up to the next start (the last one
    to row M); ``starts`` must begin at 0 and increase strictly, so that no
    segment is empty. The gradient flows to the first argmax of each segment
    and column.

    Each segment is one contiguous ``max``/``argmax`` over its rows.
    ``np.maximum.reduceat`` gives the same values, but with numpy 2.4 it pays
    a fixed cost per segment and column and is about 7x slower at 32 segments
    of 1024 columns.
    """
    t = _as_tensor(t)
    rows = t.data.shape[0] if t.data.ndim == 2 else 0
    starts = np.asarray(starts, dtype=np.intp)
    if starts.ndim != 1 or not len(starts) or starts[0] != 0 or starts[-1] >= rows or (np.diff(starts) <= 0).any():
        raise ValueError(f"amax takes (M, C) rows and non-empty segments, got {t.data.shape} and starts {starts}")
    bounds = list(zip(starts.tolist(), starts[1:].tolist() + [rows]))
    maxima = np.stack([t.data[s:e].max(axis=0) for s, e in bounds])

    def backward(g):
        # reads ``maxima``, not its own node: a closure over its node would
        # make a reference cycle that keeps the whole tape alive until gc
        full = np.zeros_like(t.data)
        cols = np.arange(t.data.shape[1])
        for (s, e), top, g_seg in zip(bounds, maxima, g):
            full[s + np.argmax(t.data[s:e] == top, axis=0), cols] = g_seg
        return (full,)

    return _node(maxima, (t,), backward)


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """``(x @ w + b).relu()``, or ``x @ w + b`` without ``relu``, as one node.

    x: (M, K); w: (K, C); b: (C,). The bias and the ReLU are applied in
    place on the product, and both directions are bitwise the three-node
    form: ``fmax(out, 0)`` then ``+ 0.0`` gives ``np.where(out > 0, out, 0.0)``
    for every input (NaN and -0.0 become +0.0) without a branch per element,
    and the backward masks the gradient with ``out > 0``, which is the
    pre-activation's ``> 0``.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.shape != (x.data.shape[1], b.data.size) or b.data.ndim != 1:
        raise ValueError(f"dense takes (M, K) @ (K, C) + (C,), got {x.shape}, {w.shape} and {b.shape}")
    out = np.matmul(x.data, w.data)
    out += b.data
    if relu:
        np.fmax(out, 0.0, out=out)
        out += 0.0

    def backward(g):
        if relu:
            g = g * (out > 0)
        return np.matmul(g, w.data.T), np.matmul(x.data.T, g), g.sum(axis=0)

    return _node(out, (x, w, b), backward)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1, zero-padded 'same' 2-D convolution (im2col + matmul).

    x: (B, C_in, H, W); w: (C_out, C_in, kh, kw) with odd kh, kw; b: (C_out,).
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    batch, c_in, h, wd = x.data.shape
    c_out, c_in_w, kh, kw = w.data.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input {c_in}, weight {c_in_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d kernels must be odd-sized")
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((batch, c_in, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph : ph + h, pw : pw + wd] = x.data

    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch * h * wd, c_in * kh * kw)
    wmat = w.data.reshape(c_out, -1)
    out_data = cols @ wmat.T
    out_data += b.data  # in place: a second (B*H*W, C_out) array costs more than the add

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(batch * h * wd, c_out)
        gw = (g2.T @ cols).reshape(w.data.shape)
        gb = g2.sum(axis=0)
        # col2im with W and H swapped, so that each of the kh x kw adds runs
        # over the long H axis; every element sums in the same (di, dj) order
        gwin = (g2 @ wmat).reshape(batch, h, wd, c_in, kh, kw).transpose(4, 5, 0, 3, 2, 1)
        gx_t = np.zeros((batch, c_in, wd + 2 * pw, h + 2 * ph))
        for di in range(kh):
            for dj in range(kw):
                gx_t[:, :, dj : dj + wd, di : di + h] += gwin[di, dj]
        return gx_t[:, :, pw : pw + wd, ph : ph + h].transpose(0, 1, 3, 2), gw, gb

    return _node(out_data.reshape(batch, h, wd, c_out).transpose(0, 3, 1, 2), (x, w, b), backward)


def maxpool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols that do not fill a
    window are dropped (floor semantics).

    Each of the size x size offsets (di, dj) in a window is a strided view of
    the input. They are visited in row-major order, and a later offset wins
    only where it is strictly larger, or a NaN over a number, so the gradient
    goes to the first maximum (the first NaN), as with ``argmax``. The output
    keeps the input's memory layout.
    """
    x = _as_tensor(x)
    if size < 1:
        raise ValueError(f"maxpool2d window must be >= 1, got {size}")
    _, _, h, w = x.data.shape
    h2, w2 = h // size, w // size
    if h2 == 0 or w2 == 0:
        raise ValueError(f"maxpool2d window {size} too large for input {x.data.shape}")
    offsets = [(di, dj) for di in range(size) for dj in range(size)]

    def window(a, di, dj):
        return a[:, :, di : h2 * size : size, dj : w2 * size : size]

    # np.where, not np.copyto(..., where=): the masked copy is about 3x slower
    best = window(x.data, 0, 0).copy(order="K")
    winner = np.zeros_like(best, dtype=np.intp)
    for k, (di, dj) in enumerate(offsets[1:], 1):
        cand = window(x.data, di, dj)
        wins = (cand > best) | (np.isnan(cand) & ~np.isnan(best))
        best = np.where(wins, cand, best)
        winner = np.where(wins, k, winner)

    def backward(g):
        # one copy brings g into the layout of ``winner`` (conv2d's input
        # gradient arrives transposed), so the size * size passes run in step
        g_k = np.empty_like(winner, dtype=float)
        g_k[...] = g
        gx = np.zeros_like(x.data)
        for k, (di, dj) in enumerate(offsets):
            window(gx, di, dj)[...] = np.where(winner == k, g_k, 0.0)
        return (gx,)

    return _node(best, (x,), backward)


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error over every element."""
    pred = _as_tensor(pred)
    target = _as_tensor(target)
    if pred.data.shape != target.data.shape:
        raise ValueError(f"mse shape mismatch: {pred.data.shape} vs {target.data.shape}")
    diff = pred - target
    return (diff * diff).mean()
