"""Reverse-mode autodiff over dense numpy arrays.

Each op records its parents and a vector-Jacobian closure on a dynamic
tape. ``backward`` walks the tape once in reverse topological order,
propagating a fresh seed of 1.0, and adds the resulting adjoints into
the ``grad`` buffers of every leaf, or of the tensors it is asked for;
every other tensor's ``grad`` stays None. Repeated calls accumulate.
float32 is the working precision for training; float64 is used by
verification paths.

A leaf has no adjoint of its own: each contribution to it is added into
its ``grad`` as soon as the VJP that makes it runs. The order matters
for a leaf used more than once, such as the tied embedding table that
each sequence reads in its lookup and in its readout. One backward
through the sum of several sequences' losses adds the parts of the
first sequence (its lookup's, then its readout's), then those of the
second, and so on; one backward per sequence, in the same order,
continues that same chain of additions and gives the same bits.
Summing each sequence's parts first and then adding the sums would
round differently.

``backward(..., wrt=tensors)`` differentiates only the nodes on a path
from the listed tensors to the loss. A VJP closure is called as
``vjp(g, need)``: ``need`` holds one flag per parent, all True when
every parent is wanted, and a closure may return None for a parent
whose flag is off (``add``, ``sub``, ``mul``, ``matmul`` and
``layernorm`` do; the other ops have one parent or return views).
Every child of a differentiated node is itself differentiated, so each
adjoint that is still computed sums the same terms in the same order
and comes out bit-identical to a full pass.

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

In both namespaces ``add_``, ``scale_``, ``relu_`` and ``softmax_rows_``
write their result into their first argument, which must be a temporary
that nothing else reads. Taped, they do so when it is an op's result
that owns its buffer and the result fits it, and allocate otherwise. No
VJP reads a value they overwrite: ``relu``'s and ``softmax_rows``' read
their own output, ``add``'s and ``scale``'s nothing.
"""

from __future__ import annotations

import contextlib
import threading
from functools import partial
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

    def _accumulate(self, g: np.ndarray, adopt: bool = False) -> None:
        """Add ``g`` into ``grad``. With ``adopt``, a first ``g`` that owns a
        writeable C-contiguous buffer of this shape and dtype becomes ``grad``;
        ``g += 0.0`` gives it the bits of ``zeros + g`` (-0.0 turns +0.0)."""
        g = np.asarray(g, dtype=self.data.dtype)
        if self.grad is None:
            if (adopt and g.base is None and g.flags.writeable and g.flags.c_contiguous
                    and g.shape == self.data.shape and self.data.flags.c_contiguous):
                g += 0.0
                self.grad = g
                return
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
    """Sum a broadcast gradient back down to ``shape`` (``g`` itself if it has it)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _into(a: Tensor, inplace: bool, b: np.ndarray | None = None) -> np.ndarray | None:
    """The array an ``inplace`` op writes its result into: ``a``'s, when
    ``a`` is an op's result that owns its writeable buffer and the other
    operand ``b`` neither grows its shape nor widens its dtype; else None,
    and the op allocates."""
    d = a.data
    if (not inplace or a._op == "leaf" or d.base is not None or not d.flags.writeable
            or b is not None and (np.broadcast_shapes(d.shape, b.shape) != d.shape
                                  or np.result_type(d, b) != d.dtype)):
        return None
    return d


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeMismatchError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from exc


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor, inplace: bool = False) -> Tensor:
    _binary_shapes(a, b, "add")

    def vjp(g, need):
        return (_unbroadcast(g, a.shape) if need[0] else None,
                _unbroadcast(g, b.shape) if need[1] else None)

    return _from_op(np.add(a.data, b.data, out=_into(a, inplace, b.data)), (a, b), "add", vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")

    def vjp(g, need):
        return (_unbroadcast(g, a.shape) if need[0] else None,
                _unbroadcast(-g, b.shape) if need[1] else None)

    return _from_op(a.data - b.data, (a, b), "sub", vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")

    def vjp(g, need):
        return (_unbroadcast(g * b.data, a.shape) if need[0] else None,
                _unbroadcast(g * a.data, b.shape) if need[1] else None)

    return _from_op(a.data * b.data, (a, b), "mul", vjp)


def scale(a: Tensor, c: float, inplace: bool = False) -> Tensor:
    c = float(c)

    def vjp(g, need):
        return (g * c,)

    return _from_op(np.multiply(a.data, c, out=_into(a, inplace)), (a,), "scale", vjp)


def relu(a: Tensor, inplace: bool = False) -> Tensor:
    """max(a, 0); the VJP masks with ``out > 0``, which equals ``a > 0``."""
    into = _into(a, inplace)
    out = _relu_(a.data.copy() if into is None else into)

    def vjp(g, need):
        return (g * (out > 0),)

    return _from_op(out, (a,), "relu", vjp)


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


def slice_rows(a: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    """Indices ``start:stop`` along ``axis``, copied."""
    index = _rows(a.data, start, stop, axis)

    def vjp(g, need):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _from_op(a.data[index].copy(), (a,), "slice_rows", vjp)


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
        return (_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
                if need[0] else None,
                _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
                if need[1] else None)

    return _from_op(data, (a, b), "matmul", vjp)


def softmax_rows(a: Tensor, inplace: bool = False) -> Tensor:
    """Softmax over the last axis."""
    s = _softmax_rows(a.data, out=_into(a, inplace))

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
        da = dgamma = dbeta = None
        if need[0]:
            dy = g * gamma.data
            da = (inv * (dy - dy.mean(axis=-1, keepdims=True)
                         - y * (dy * y).mean(axis=-1, keepdims=True))).astype(a.dtype, copy=False)
        if need[1]:
            dgamma = ((g * y).sum(axis=lead) if lead else g * y).astype(gamma.dtype, copy=False)
        if need[2]:
            dbeta = (g.sum(axis=lead) if lead else g).astype(beta.dtype, copy=False)
        return da, dgamma, dbeta

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
    """Mean negative log-likelihood of ``targets`` under row softmaxes:
    0-d for (T, V) logits, one mean per sequence for (B, T, V)."""
    targets = np.asarray(targets, dtype=np.int64)
    nll, e, zsum = _cross_entropy(logits.data, targets)
    t_len = targets.shape[-1]

    def vjp(g, need):
        d = e / zsum
        flat = d.reshape(-1, d.shape[-1])
        flat[np.arange(len(flat)), targets.reshape(-1)] -= 1.0
        return (d * (np.reshape(g, np.shape(g) + (1, 1)) / t_len),)

    return _from_op(nll, (logits,), "cross_entropy", vjp)


# ---------------------------------------------------------------------------
# array forms
#
# The forward math of the network ops on plain arrays, shared by both
# modes. An op whose name ends in ``_`` overwrites its first argument
# and returns it, as the ``_`` ops of both namespaces do.


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


def _rows(a: np.ndarray, start: int, stop: int, axis: int) -> tuple:
    """The index of ``start:stop`` along ``axis`` of ``a``, range-checked."""
    start, stop = int(start), int(stop)
    axis = axis % a.ndim
    if not (0 <= start <= stop <= a.shape[axis]):
        raise ShapeMismatchError(
            f"slice_rows: [{start}:{stop}] outside length {a.shape[axis]}")
    return (slice(None),) * axis + (slice(start, stop),)


def _lookup(table: np.ndarray, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise ShapeMismatchError(f"embedding_lookup: ids must be 1-D or 2-D, got {ids.shape}")
    vocab = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise InvalidTokenIdError(f"embedding_lookup: ids outside [0, {vocab})")
    return table[ids]


def _cross_entropy(logits: np.ndarray, targets):
    """Mean NLL in the logits' dtype (0-d for (T, V) logits, (B,) for
    (B, T, V)), exp(logits - max), row sums. Each sequence's rows reduce
    as they would on their own."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim not in (2, 3):
        raise ShapeMismatchError(
            f"cross_entropy: logits must be (T, V) or (B, T, V), got {logits.shape}")
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1] or targets.shape[-1] == 0:
        raise ShapeMismatchError(
            f"cross_entropy: targets {targets.shape} do not match logits {logits.shape}"
        )
    if targets.min() < 0 or targets.max() >= vocab:
        raise InvalidTokenIdError(f"cross_entropy: targets outside [0, {vocab})")
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    zsum = e.sum(axis=-1, keepdims=True)
    lse = (m + np.log(zsum))[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return np.asarray((lse - picked).mean(axis=-1), dtype=logits.dtype), e, zsum


# ---------------------------------------------------------------------------
# the two op namespaces

# ``leaf`` reads a Tensor (a parameter), ``const`` wraps a new array,
# ``value`` gives a result's array, and ``check`` is the caller's own
# finiteness check, which only array mode needs. ``slice_rows`` copies in
# both modes: a matmul's bits can depend on its operands' memory layout.
TAPED = SimpleNamespace(
    leaf=lambda t: t, const=constant, value=lambda t: t.data,
    check=lambda value, op: None, add=add, add_=partial(add, inplace=True), mul=mul,
    scale_=partial(scale, inplace=True), matmul=matmul, reshape=reshape,
    transpose=transpose, layernorm=layernorm, relu_=partial(relu, inplace=True),
    softmax_rows_=partial(softmax_rows, inplace=True), embedding_lookup=embedding_lookup,
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
    slice_rows=lambda a, start, stop, axis=0: a[_rows(a, start, stop, axis)].copy(),
    cross_entropy=lambda logits, targets: _cross_entropy(logits, targets)[0],
    mean_rows=lambda a: a.mean(axis=0), stack_rows=np.stack,
)


def ops() -> SimpleNamespace:
    """The op namespace of this thread's mode: ``TAPED``, or ``ARRAY``
    under ``no_grad``."""
    return TAPED if _grad_mode.enabled else ARRAY


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor, wrt=None) -> None:
    """Accumulate d(loss)/dt into ``t.grad`` for each tensor in ``wrt``,
    leaf or intermediate (None: every reachable leaf with
    ``requires_grad``); no other tensor gets a ``grad`` buffer.
    Repeated calls without resetting grads add up.

    A leaf adds each contribution into its ``grad`` as the VJP that makes
    it runs, in the order an adjoint sums its terms, so a fresh grad gets
    the bits of that sum, and passes over several losses, one after
    another, give a shared leaf the bits of one pass over their sum (see
    the module docstring).

    Each VJP is told which of its parents take a gradient, so the
    two-parent ops skip the product for a constant. With ``wrt`` given,
    only *needed* nodes are differentiated: a node is needed if it is in
    ``wrt`` or has a needed parent. A node that is not needed gets no VJP
    call, nor a flag from its children. The result is bit-identical to a
    full pass: every child of a needed node is needed, so each needed
    adjoint sums the same terms in the same order.
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
        need = tuple([p.requires_grad if needed is None else id(p) in needed
                      for p in node._parents])
        if not any(need):
            continue
        for parent, pg, want in zip(node._parents, node._vjp(g, need), need):
            if not want:
                continue
            if not parent._parents:   # g itself may be passed on: adopt only new arrays
                parent._accumulate(pg, adopt=pg is not g)
                continue
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = np.asarray(pg)


# ---------------------------------------------------------------------------
# Hessian-vector products


def hessian_vector_product(loss_fn, a, v, eps: float = 1e-4, grad0=None):
    """Finite difference of gradients along ``v``: H(a) @ v, row by row.

    ``a`` is a list of arrays, such as one offset per layer, that share a
    leading axis of B independent rows; ``v`` and ``grad0`` are lists of
    arrays shaped like them, and ``loss_fn`` maps a list of leaf tensors
    shaped like ``a`` to the (B,) losses of the rows, row b reading only
    row b of each leaf. Row b steps from row b of ``a`` along row b of
    ``v`` alone, normalized by the norm of that row of every array of
    ``v``, flattened and joined in list order, so ``eps`` is an absolute
    step; its product is (g1_b - g0_b) * (|v_b| / eps), a list of float64
    arrays shaped like ``a``, formed in place in the gradient buffers of
    the step pass. One taped pass steps every row at once; a single
    vector is one row, a (1, n) array in a list of one.

    ``grad0``, when given, is the gradient of ``loss_fn`` at ``a`` that
    the caller already holds; it replaces the first of the two taped
    gradient passes, so the product costs one. Each gradient pass
    differentiates only its arguments: tensors that ``loss_fn`` closes
    over, such as model parameters, get no ``grad``.
    """
    if eps <= 0:
        raise DomainError("hessian_vector_product: eps must be positive")
    shapes = [np.shape(x) for x in a]
    for name, arrays in (("v", v), ("grad0", grad0)):
        if arrays is not None and [np.shape(x) for x in arrays] != shapes:
            raise ShapeMismatchError(f"hessian_vector_product: {name} shapes"
                                     f" {[np.shape(x) for x in arrays]} vs a {shapes}")
    rows = shapes[0][0]
    if any(shape[:1] != (rows,) for shape in shapes):
        raise ShapeMismatchError(f"hessian_vector_product: {shapes} share no row axis")
    norms = np.array([np.linalg.norm(np.concatenate([np.reshape(x[b], -1) for x in v]))
                      for b in range(rows)], dtype=np.float64)
    if not norms.all():
        raise ZeroVectorError("hessian_vector_product: direction has zero norm")

    def per_row(values: np.ndarray, ndim: int) -> np.ndarray:
        return values.reshape((rows,) + (1,) * (ndim - 1))

    def grad_at(points: list) -> list:
        xs = [Tensor(point, requires_grad=True) for point in points]
        backward(tsum(loss_fn(xs)), wrt=xs)
        return [np.zeros(x.shape) if x.grad is None
                else np.asarray(x.grad, dtype=np.float64) for x in xs]

    def stepped(base, direction) -> np.ndarray:
        point = eps * np.asarray(direction, dtype=np.float64)
        point /= per_row(norms, point.ndim)
        point += base
        return point.astype(np.asarray(base).dtype, copy=False)

    if grad0 is None:
        g0 = grad_at([np.array(x) for x in a])
    else:
        g0 = [np.asarray(g, dtype=np.float64) for g in grad0]
    hv = grad_at([stepped(base, d) for base, d in zip(a, v)])
    for diff, g in zip(hv, g0):
        diff -= g
        diff *= per_row(norms / eps, diff.ndim)
        _check_finite(diff, "hessian_vector_product")
    return hv
