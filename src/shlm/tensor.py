"""Reverse-mode autodiff over dense numpy arrays.

Each op records its parents and a vector-Jacobian closure on a dynamic
tape. ``backward`` walks the tape once in reverse topological order,
propagating a fresh seed of 1.0, and adds the resulting adjoints into
the ``grad`` buffers of every leaf, or of the tensors it is asked for;
every other tensor's ``grad`` stays None. Repeated calls accumulate.
float32 is the working precision for training; float64 is used by
verification paths.

``backward(..., wrt=tensors)`` differentiates only the nodes on a path
from the listed tensors to the loss. A VJP closure
is called as ``vjp(g, need)``: ``need`` holds one flag per parent, or is
None when every parent is wanted, and a closure may return None for a
parent whose flag is off (``matmul`` does; the other ops ignore the
flags). Every child of a differentiated node is itself differentiated,
so each adjoint that is still computed sums the same terms in the same
order and comes out bit-identical to a full pass.

A taped op records its node whenever a parent requires a gradient, and
checks its output for non-finite values. The network ops also have an
array form on plain arrays, with no tape and no check, that the taped
op computes its value with. ``ops()`` gives the namespace of the
thread's mode: ``TAPED``, or ``ARRAY`` inside ``with no_grad():``. Code
written against it runs in both with the same bits; in array mode it
builds no tape, frees each intermediate as soon as nothing reads it,
and checks for non-finite values where it chooses. ``no_grad`` selects
the namespace and nothing else: a taped op called directly always
tapes. The mode is per thread: entering it in one thread leaves the
tape on in every other.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from types import SimpleNamespace

import numpy as np

from .errors import (
    DomainError,
    EmptyTapeError,
    InvalidTokenIdError,
    NonFiniteError,
    NotScalarError,
    ShapeMismatchError,
    ZeroVectorError,
)

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Make ``ops()`` give ``ARRAY`` in this thread for the block."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by '{op}'")


class Tensor:
    """A dense float array plus the tape node that produced it."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        _check_finite(arr, "leaf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        g = np.asarray(g, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g.reshape(self.data.shape)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self._op})"


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], op: str, vjp) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    out.requires_grad = taped = any(p.requires_grad for p in parents)
    out._parents = parents if taped else ()
    out._vjp = vjp if taped else None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeMismatchError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from exc


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")

    def vjp(g, need):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _from_op(a.data + b.data, (a, b), "add", vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")

    def vjp(g, need):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _from_op(a.data - b.data, (a, b), "sub", vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")

    def vjp(g, need):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _from_op(a.data * b.data, (a, b), "mul", vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g, need):
        return (g * c,)

    return _from_op(a.data * c, (a,), "scale", vjp)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0

    def vjp(g, need):
        return (g * keep,)

    return _from_op(_relu_(a.data.copy()), (a,), "relu", vjp)


def square(a: Tensor) -> Tensor:
    def vjp(g, need):
        return (g * (2.0 * a.data),)

    return _from_op(a.data * a.data, (a,), "square", vjp)


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(n) for n in shape)
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatchError(f"reshape: {a.shape} -> {shape}") from exc

    def vjp(g, need):
        return (g.reshape(a.shape),)

    return _from_op(data, (a,), "reshape", vjp)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeMismatchError(f"transpose: axes {axes} invalid for rank {a.data.ndim}")
    inverse = tuple(np.argsort(axes))

    def vjp(g, need):
        return (g.transpose(inverse),)

    return _from_op(a.data.transpose(axes), (a,), "transpose", vjp)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    start, stop = int(start), int(stop)
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeMismatchError(f"slice_rows: [{start}:{stop}] outside length {a.shape[0]}")

    def vjp(g, need):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _from_op(a.data[start:stop].copy(), (a,), "slice_rows", vjp)


def tsum(a: Tensor) -> Tensor:
    def vjp(g, need):
        return (np.broadcast_to(g, a.shape).astype(a.dtype),)

    return _from_op(np.asarray(a.data.sum(), dtype=a.dtype), (a,), "tsum", vjp)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over axis 0."""
    if a.data.ndim < 1 or a.shape[0] == 0:
        raise ShapeMismatchError(f"mean_rows: need a non-empty leading axis, got {a.shape}")
    n = a.shape[0]

    def vjp(g, need):
        return (np.broadcast_to(g / n, a.shape).astype(a.dtype),)

    return _from_op(a.data.mean(axis=0), (a,), "mean_rows", vjp)


def stack_rows(tensors: list[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    if not tensors:
        raise ShapeMismatchError("stack_rows: empty input")
    shape = tensors[0].shape
    for t in tensors:
        if t.shape != shape:
            raise ShapeMismatchError(f"stack_rows: mixed shapes {shape} and {t.shape}")

    def vjp(g, need):
        return tuple(g[i] for i in range(len(tensors)))

    return _from_op(np.stack([t.data for t in tensors]), tuple(tensors), "stack_rows", vjp)


# ---------------------------------------------------------------------------
# linear algebra and network ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatchError(f"matmul: ranks must be >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeMismatchError(f"matmul: batch dims differ, {a.shape} @ {b.shape}") from exc

    def vjp(g, need):
        ga = gb = None
        if need is None or need[0]:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if need is None or need[1]:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _from_op(data, (a, b), "matmul", vjp)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    s = _softmax_rows(a.data)

    def vjp(g, need):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _from_op(s, (a,), "softmax_rows", vjp)


def layernorm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    n = a.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeMismatchError(
            f"layernorm: affine shapes {gamma.shape}/{beta.shape} do not match width {n}"
        )
    y, inv = _normalized(a.data, eps)

    def vjp(g, need):
        lead = tuple(range(g.ndim - 1))
        dbeta = g.sum(axis=lead) if lead else g
        dgamma = (g * y).sum(axis=lead) if lead else g * y
        dy = g * gamma.data
        da = inv * (
            dy
            - dy.mean(axis=-1, keepdims=True)
            - y * (dy * y).mean(axis=-1, keepdims=True)
        )
        return da.astype(a.dtype), dgamma.astype(gamma.dtype), dbeta.astype(beta.dtype)

    out = (y * gamma.data + beta.data).astype(a.dtype, copy=False)
    return _from_op(out, (a, gamma, beta), "layernorm", vjp)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    data = _lookup(table.data, ids)

    def vjp(g, need):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return (full,)

    return _from_op(data, (table,), "embedding_lookup", vjp)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under row softmaxes."""
    nll, e, zsum = _cross_entropy(logits.data, targets)
    t_len = len(targets)

    def vjp(g, need):
        d = e / zsum
        d[np.arange(t_len), targets] -= 1.0
        return (d * (g / t_len),)

    return _from_op(nll, (logits,), "cross_entropy", vjp)


# ---------------------------------------------------------------------------
# array forms
#
# The forward math of the network ops on plain arrays, shared by both
# modes. An op whose name ends in ``_`` may overwrite its first argument
# and returns it: pass it only a temporary that nothing else holds.


def _relu_(a: np.ndarray) -> np.ndarray:
    """max(a, 0) and +0.0 for -0.0, branch-free; no NaN reaches a ReLU."""
    np.maximum(a, 0.0, out=a)
    a += 0.0   # -0.0 + 0.0 is +0.0
    return a


def _softmax_rows(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Last-axis softmax, in place with ``out=a``; fmax finds the exact max fastest."""
    s = np.subtract(a, np.fmax.reduce(a, axis=-1, keepdims=True), out=out)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _normalized(a: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(a - mean) / std over the last axis and 1 / std, as ``mean``/``var`` do it."""
    n = a.shape[-1]
    y = a - np.add.reduce(a, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True) / n + eps)
    y *= inv
    return y, inv


def _layernorm(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    """``layernorm`` for ``a``, ``gamma`` and ``beta`` of one dtype."""
    y = _normalized(a, eps)[0]
    y *= gamma
    y += beta
    return y


def _lookup(table: np.ndarray, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeMismatchError(f"embedding_lookup: ids must be 1-D, got {ids.shape}")
    vocab = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise InvalidTokenIdError(f"embedding_lookup: ids outside [0, {vocab})")
    return table[ids]


def _cross_entropy(logits: np.ndarray, targets):
    """Mean NLL (0-d, the logits' dtype), exp(logits - max), row sums."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeMismatchError(f"cross_entropy: logits must be (T, V), got {logits.shape}")
    t_len, vocab = logits.shape
    if targets.shape != (t_len,) or t_len == 0:
        raise ShapeMismatchError(
            f"cross_entropy: targets {targets.shape} do not match logits {logits.shape}"
        )
    if targets.min() < 0 or targets.max() >= vocab:
        raise InvalidTokenIdError(f"cross_entropy: targets outside [0, {vocab})")
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    zsum = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(zsum)).reshape(-1)
    picked = logits[np.arange(t_len), targets]
    return np.asarray((lse - picked).mean(), dtype=logits.dtype), e, zsum


# ---------------------------------------------------------------------------
# the two op namespaces

# ``leaf`` reads a Tensor (a parameter), ``const`` wraps a new array,
# ``value`` gives a result's array, and ``check`` is the caller's own
# finiteness check, which only array mode needs. ``slice_rows`` copies in
# both modes: a matmul's bits can depend on its operands' memory layout.
TAPED = SimpleNamespace(
    leaf=lambda t: t, const=constant, value=lambda t: t.data,
    check=lambda value, op: None, add=add, add_=add, mul=mul, scale_=scale,
    matmul=matmul, reshape=reshape, transpose=transpose, layernorm=layernorm,
    relu_=relu, softmax_rows_=softmax_rows, embedding_lookup=embedding_lookup,
    slice_rows=slice_rows, cross_entropy=cross_entropy, mean_rows=mean_rows,
    stack_rows=stack_rows,
)
ARRAY = SimpleNamespace(
    leaf=lambda t: t.data, const=lambda data: data, value=lambda data: data,
    check=_check_finite, add=np.add, add_=lambda a, b: np.add(a, b, out=a),
    mul=np.multiply, scale_=lambda a, c: np.multiply(a, c, out=a),
    matmul=np.matmul, reshape=np.reshape, transpose=np.transpose,
    layernorm=_layernorm, relu_=_relu_,
    softmax_rows_=lambda a: _softmax_rows(a, out=a), embedding_lookup=_lookup,
    slice_rows=lambda a, start, stop: a[start:stop].copy(),
    cross_entropy=lambda logits, targets: _cross_entropy(logits, targets)[0],
    mean_rows=lambda a: a.mean(axis=0), stack_rows=np.stack,
)


def ops() -> SimpleNamespace:
    """The op namespace of this thread's mode: ``TAPED``, or ``ARRAY``
    under ``no_grad``."""
    return TAPED if _grad_mode.enabled else ARRAY


# ---------------------------------------------------------------------------
# backward pass

# the need flags of a pass that wants every parent
_EVERY_PARENT = itertools.repeat(True)


def backward(loss: Tensor, wrt=None) -> None:
    """Accumulate d(loss)/dt into ``t.grad`` for each tensor in ``wrt``,
    leaf or intermediate (None: every reachable leaf with
    ``requires_grad``); no other tensor gets a ``grad`` buffer.
    Repeated calls without resetting grads add up.

    With ``wrt`` given, only *needed* nodes are differentiated: a node
    is needed if it is in ``wrt`` or has a needed parent. A node that is
    not needed gets no VJP call, and each VJP is told which of its
    parents are needed, so ``matmul`` skips the product for the others.
    The result is bit-identical to a full pass: every child of a needed
    node is needed, so each needed adjoint sums the same terms in the
    same order.
    """
    if loss.size != 1:
        raise NotScalarError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss._parents and not loss.requires_grad:
        raise EmptyTapeError("backward: loss is not connected to any tape")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and (p.requires_grad or p._parents):
                stack.append((p, False))

    wanted = needed = None
    if wrt is not None:
        wanted = {id(t) for t in wrt}
        needed = set()
        for node in topo:  # parents come before children
            if (id(node) in wanted
                    or any(id(p) in needed for p in node._parents)):
                needed.add(id(node))
        if id(loss) not in needed:
            return
    adjoint: dict[int, np.ndarray] = {
        id(loss): np.ones_like(loss.data, dtype=loss.data.dtype)
    }
    for node in reversed(topo):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and (not node._parents if wanted is None
                                   else id(node) in wanted):
            node._accumulate(g)
        if node._vjp is None:
            continue
        need = None
        if needed is not None:
            need = tuple(id(p) in needed for p in node._parents)
            if not any(need):
                continue
        for parent, pg, want in zip(node._parents, node._vjp(g, need),
                                    need or _EVERY_PARENT):
            if not want or not (parent.requires_grad or parent._parents):
                continue
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = np.asarray(pg)


# ---------------------------------------------------------------------------
# Hessian-vector products


def hessian_vector_product(loss_fn, a: Tensor, v: Tensor, eps: float = 1e-4,
                           grad0=None) -> Tensor:
    """Finite difference of gradients along ``v``: H(a) @ v.

    ``loss_fn`` maps a tensor shaped like ``a`` to a scalar loss. The
    direction is normalized internally, so ``eps`` is an absolute step.
    ``grad0``, when given, is the gradient of ``loss_fn`` at ``a`` that
    the caller already holds; it replaces the first of the two taped
    gradient passes, so the product costs one. Each gradient pass
    differentiates only its argument: tensors that ``loss_fn`` closes
    over, such as model parameters, get no ``grad``.
    """
    if eps <= 0:
        raise DomainError("hessian_vector_product: eps must be positive")
    if v.shape != a.shape:
        raise ShapeMismatchError(f"hessian_vector_product: v {v.shape} vs a {a.shape}")
    if grad0 is not None and np.shape(grad0) != a.shape:
        raise ShapeMismatchError(
            f"hessian_vector_product: grad0 {np.shape(grad0)} vs a {a.shape}")
    norm = float(np.linalg.norm(v.data))
    if norm == 0.0:
        raise ZeroVectorError("hessian_vector_product: direction has zero norm")

    def grad_at(point: np.ndarray) -> np.ndarray:
        x = Tensor(point, requires_grad=True, dtype=a.dtype)
        out = loss_fn(x)
        backward(out, wrt=(x,))
        if x.grad is None:
            return np.zeros_like(point)
        return np.asarray(x.grad, dtype=np.float64)

    base = np.asarray(a.data, dtype=np.float64)
    step = eps * np.asarray(v.data, dtype=np.float64) / norm
    if grad0 is None:
        g0 = grad_at(base.astype(a.dtype))
    else:
        g0 = np.asarray(grad0, dtype=np.float64)
    g1 = grad_at((base + step).astype(a.dtype))
    hv = (g1 - g0) * (norm / eps)
    _check_finite(hv, "hessian_vector_product")
    return Tensor(hv.astype(a.dtype))
