"""Reverse-mode automatic differentiation over dense numpy tensors.

A dynamic tape: every op returns a `Tensor` that remembers its parents and a
closure propagating the upstream gradient. `backward` topologically sorts the
graph reachable from a scalar loss and runs the closures in reverse. Gradients
of non-parameter intermediates are freed after the pass.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError, EmptySupportError

DEFAULT_DTYPE = np.float64


class Tensor:
    __slots__ = ("data", "grad", "parents", "backward_fn", "is_param", "name",
                 "_backward_done")

    def __init__(self, data, parents=(), backward_fn=None, is_param=False,
                 name=None):
        self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.grad = None
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.is_param = is_param
        self.name = name
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"


def param(data, name=None) -> Tensor:
    return Tensor(data, is_param=True, name=name)


def constant(data) -> Tensor:
    return Tensor(data)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE))


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor, accumulate: bool = False) -> None:
    """Populate `.grad` on every tensor reachable from the scalar `loss`.

    Gradient accumulators are zero-initialized per pass; a repeated backward
    from the same loss raises unless `accumulate=True` is passed explicitly.
    A parameter's existing gradient is zeroed in place, never replaced, so
    it stays a view of its optimizer's gradient buffer (`train.Adam`).
    """
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape "
                         f"{loss.data.shape}")
    if loss._backward_done and not accumulate:
        raise RuntimeError("backward already ran on this loss; pass "
                           "accumulate=True to add into existing gradients")
    order = _topo_order(loss)
    for node in order:
        if node.grad is None or not (accumulate or node.is_param):
            node.grad = np.zeros_like(node.data)
        elif not accumulate:
            node.grad[...] = 0.0
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(order):
        if node.backward_fn is not None:
            node.backward_fn(node.grad)
    # intermediates (non-parameter, non-leaf) do not keep their gradients
    for node in order:
        if node.parents and not node.is_param and node is not loss:
            node.grad = None
    loss._backward_done = True


# ---------------------------------------------------------------------------
# ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports (m,k)@(k,n) and the matvec case (m,k)@(k,)."""
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise DimensionError(f"matmul expects 2-d lhs and 1/2-d rhs, got "
                             f"{a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} @ "
                             f"{b.data.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b))

    if b.data.ndim == 1:
        def bw(g):
            a.grad += np.outer(g, b.data)
            b.grad += a.data.T @ g
    else:
        def bw(g):
            a.grad += g @ b.data.T
            b.grad += a.data.T @ g
    out.backward_fn = bw
    return out


def _check_same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{opname} shape mismatch: {a.data.shape} vs "
                             f"{b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data, parents=(a, b))

    def bw(g):
        a.grad += g
        b.grad += g
    out.backward_fn = bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data, parents=(a, b))

    def bw(g):
        a.grad += g
        b.grad -= g
    out.backward_fn = bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data, parents=(a, b))

    def bw(g):
        a.grad += g * b.data
        b.grad += g * a.data
    out.backward_fn = bw
    return out


def smul(s: Tensor, v: Tensor) -> Tensor:
    """Broadcast-multiply a 0-d scalar tensor onto a vector/matrix."""
    if s.data.shape != ():
        raise DimensionError(f"smul scalar operand has shape {s.data.shape}")
    out = Tensor(s.data * v.data, parents=(s, v))

    def bw(g):
        s.grad += np.sum(g * v.data)
        v.grad += g * s.data
    out.backward_fn = bw
    return out


def one_minus(a: Tensor) -> Tensor:
    out = Tensor(1.0 - a.data, parents=(a,))

    def bw(g):
        a.grad -= g
    out.backward_fn = bw
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, parents=(a,))

    def bw(g):
        a.grad += g * (1.0 - y * y)
    out.backward_fn = bw
    return out


def stable_sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """exp(min(x, 0)) / (1 + exp(-|x|)): never exponentiates a large
    positive argument. `out` may be `x` itself."""
    e = np.exp(-np.abs(x))
    e += 1.0
    num = np.exp(np.minimum(x, 0.0, out=out), out=out)
    return np.divide(num, e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    y = stable_sigmoid(a.data)
    out = Tensor(y, parents=(a,))

    def bw(g):
        a.grad += g * y * (1.0 - y)
    out.backward_fn = bw
    return out


def softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 1:
        raise DimensionError(f"softmax expects a vector, got {a.data.shape}")
    if a.data.size == 0:
        raise EmptySupportError("softmax over empty logits")
    shifted = a.data - np.max(a.data)
    e = np.exp(shifted)
    y = e / np.sum(e)
    out = Tensor(y, parents=(a,))

    def bw(g):
        a.grad += y * (g - np.dot(g, y))
    out.backward_fn = bw
    return out


def logsumexp(a: Tensor) -> Tensor:
    if a.data.ndim != 1 or a.data.size == 0:
        raise DimensionError(f"logsumexp expects a non-empty vector, got "
                             f"{a.data.shape}")
    m = np.max(a.data)
    e = np.exp(a.data - m)
    s = np.sum(e)
    out = Tensor(np.asarray(m + np.log(s)), parents=(a,))
    soft = e / s

    def bw(g):
        a.grad += g * soft
    out.backward_fn = bw
    return out


def cross_entropy(scores: Tensor, gold) -> Tensor:
    """`m + log sum exp(s - m) - s[gold]`, m the row maximum, for each row
    of `(B, K)` scores as one `(B,)` node, or of `(K,)` scores as a 0-d one.
    Pad columns scoring -inf add nothing and get zero gradient."""
    s = scores.data
    if s.ndim not in (1, 2) or s.shape[-1] == 0:
        raise DimensionError(f"cross_entropy of scores shaped {s.shape}")
    rows = s.reshape(-1, s.shape[-1])
    gold = np.asarray(gold, dtype=np.intp).reshape(-1)
    if gold.shape != rows.shape[:1]:
        raise DimensionError(f"{gold.size} gold indices for {len(rows)} rows")
    if gold.view(np.uintp).max() >= rows.shape[1]:
        raise IndexError(f"gold index outside [0, {rows.shape[1]})")
    at = np.arange(len(rows)), gold
    m = rows.max(axis=1)
    e = np.exp(rows - m[:, None])
    total = e.sum(axis=1)
    out = Tensor((m + np.log(total) - rows[at]).reshape(s.shape[:-1]),
                 parents=(scores,))

    def bw(g):
        g = g.reshape(-1, 1)
        d = g * (e / total[:, None])
        d[at] -= g[:, 0]
        scores.grad += d.reshape(s.shape)
    out.backward_fn = bw
    return out


def gather_rows(e: Tensor, ids) -> Tensor:
    """Rows of the matrix `e` at ids of any shape; repeated ids scatter-add
    their gradients."""
    if e.data.ndim != 2:
        raise DimensionError(f"gather_rows expects a matrix, got {e.data.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    n_rows = e.data.shape[0]
    bad = idx.view(np.uintp) >= n_rows  # a negative id reads as a huge one
    if bad.any():
        raise IndexError(f"row id {idx[bad][0]} out of range [0, {n_rows})")
    out = Tensor(e.data[idx], parents=(e,))

    def bw(g):
        np.add.at(e.grad, idx, g)
    out.backward_fn = bw
    return out


def take_row(m: Tensor, i: int) -> Tensor:
    if m.data.ndim != 2:
        raise DimensionError(f"take_row expects a matrix, got {m.data.shape}")
    if not 0 <= i < m.data.shape[0]:
        raise IndexError(f"row {i} out of range [0, {m.data.shape[0]})")
    out = Tensor(m.data[i], parents=(m,))

    def bw(g):
        m.grad[i] += g
    out.backward_fn = bw
    return out


# no caller in src/; stays because benches/tracer.py patches ag.stack_rows
def stack_rows(parts) -> Tensor:
    parts = list(parts)
    if not parts:
        raise DimensionError("stack_rows of zero tensors")
    for p in parts:
        if p.data.shape != parts[0].data.shape or p.data.ndim != 1:
            raise DimensionError(f"stack_rows expects equal-length vectors, "
                                 f"got {[q.data.shape for q in parts]}")
    out = Tensor(np.stack([p.data for p in parts]), parents=tuple(parts))

    def bw(g):
        for i, p in enumerate(parts):
            p.grad += g[i]
    out.backward_fn = bw
    return out


def concat(parts) -> Tensor:
    """Concatenate vectors along their single axis."""
    parts = list(parts)
    if not parts:
        raise DimensionError("concat of zero tensors")
    for p in parts:
        if p.data.ndim != 1:
            raise DimensionError(f"concat expects vectors, got shape "
                                 f"{p.data.shape}")
    out = Tensor(np.concatenate([p.data for p in parts]), parents=tuple(parts))
    offsets = np.cumsum([0] + [p.data.size for p in parts])

    def bw(g):
        for i, p in enumerate(parts):
            p.grad += g[offsets[i]:offsets[i + 1]]
    out.backward_fn = bw
    return out


def transpose(m: Tensor) -> Tensor:
    if m.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got {m.data.shape}")
    out = Tensor(m.data.T, parents=(m,))

    def bw(g):
        m.grad += g.T
    out.backward_fn = bw
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), parents=(a,))

    def bw(g):
        a.grad += g.reshape(a.data.shape)
    out.backward_fn = bw
    return out


def dot(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "dot")
    out = Tensor(np.asarray(np.dot(a.data, b.data)), parents=(a, b))

    def bw(g):
        a.grad += g * b.data
        b.grad += g * a.data
    out.backward_fn = bw
    return out


def pick(v: Tensor, i: int) -> Tensor:
    """Select one entry of a vector as a 0-d scalar."""
    if v.data.ndim != 1:
        raise DimensionError(f"pick expects a vector, got {v.data.shape}")
    if not 0 <= i < v.data.size:
        raise IndexError(f"index {i} out of range [0, {v.data.size})")
    out = Tensor(np.asarray(v.data[i]), parents=(v,))

    def bw(g):
        v.grad[i] += g
    out.backward_fn = bw
    return out


# ---------------------------------------------------------------------------
# finite-difference harness

def grad_check(f, params, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` rebuilds the tape from the given parameter tensors and returns the
    scalar loss. Must be deterministic (dropout off).
    """
    loss = f()
    backward(loss)
    # a parameter the loss does not depend on legitimately has no gradient
    analytic = [p.grad.copy() if p.grad is not None
                else np.zeros_like(p.data) for p in params]
    max_err = 0.0
    for p, ag in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = ag.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = float(f().data)
            flat[j] = orig - eps
            down = float(f().data)
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            a = aflat[j]
            if not (np.isfinite(a) and np.isfinite(numeric)):
                raise FloatingPointError(
                    f"non-finite gradient for param {p.name!r} entry {j}: "
                    f"analytic={a}, numeric={numeric}")
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, err)
    return max_err
