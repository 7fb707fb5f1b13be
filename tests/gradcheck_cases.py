"""Gradient-check cases shared by the tensor tests and the acceptance suite.

Each case builds float64 inputs plus a closure from tensors to a scalar
loss. The runner compares taped gradients against the central-difference
oracle for every input.
"""

import numpy as np

from shlm import tensor as T

from .oracles import central_diff_grad, relative_error


def _projector(rng, shape):
    w = rng.standard_normal(shape)

    def proj(out):
        return T.tsum(T.mul(out, T.constant(w, dtype=out.dtype)))

    return proj


def case_add(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4,))
    proj = _projector(rng, (3, 4))
    return [a, b], lambda ta, tb: proj(T.add(ta, tb))


def case_sub(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((1, 3, 4))
    proj = _projector(rng, (2, 3, 4))
    return [a, b], lambda ta, tb: proj(T.sub(ta, tb))


def case_mul(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 1))
    proj = _projector(rng, (3, 4))
    return [a, b], lambda ta, tb: proj(T.mul(ta, tb))


def case_scale(rng):
    a = rng.standard_normal((5,)).reshape(5)
    proj = _projector(rng, (5,))
    return [a], lambda ta: proj(T.scale(ta, -1.7))


def case_relu(rng):
    # keep inputs away from the kink so finite differences stay valid
    a = rng.uniform(0.2, 1.5, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
    proj = _projector(rng, (3, 4))
    return [a], lambda ta: proj(T.relu(ta))


def case_square(rng):
    a = rng.standard_normal((4, 3))
    proj = _projector(rng, (4, 3))
    return [a], lambda ta: proj(T.square(ta))


def case_matmul(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5))
    proj = _projector(rng, (3, 5))
    return [a, b], lambda ta, tb: proj(T.matmul(ta, tb))


def case_matmul_batched(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4, 5))
    proj = _projector(rng, (2, 3, 5))
    return [a, b], lambda ta, tb: proj(T.matmul(ta, tb))


def case_reshape_transpose(rng):
    a = rng.standard_normal((3, 4))
    proj = _projector(rng, (2, 3, 2))
    return [a], lambda ta: proj(T.transpose(T.reshape(ta, (2, 2, 3)), (0, 2, 1)))


def case_slice_rows(rng):
    a = rng.standard_normal((5, 3))
    proj = _projector(rng, (2, 3))
    return [a], lambda ta: proj(T.slice_rows(ta, 1, 3))


def case_mean_rows(rng):
    a = rng.standard_normal((4, 3))
    proj = _projector(rng, (3,))
    return [a], lambda ta: proj(T.mean_rows(ta))


def case_stack_rows(rng):
    a = rng.standard_normal((3,))
    b = rng.standard_normal((3,))
    proj = _projector(rng, (2, 3))
    return [a, b], lambda ta, tb: proj(T.stack_rows([ta, tb]))


def case_softmax(rng):
    a = rng.standard_normal((3, 6))
    proj = _projector(rng, (3, 6))
    return [a], lambda ta: proj(T.softmax_rows(ta))


def case_layernorm(rng):
    a = rng.standard_normal((3, 5))
    g = rng.uniform(0.5, 1.5, size=(5,))
    b = rng.standard_normal((5,))
    proj = _projector(rng, (3, 5))
    return [a, g, b], lambda ta, tg, tb: proj(T.layernorm(ta, tg, tb))


def case_embedding(rng):
    table = rng.standard_normal((6, 4))
    ids = np.array([0, 3, 3, 5, 1])
    proj = _projector(rng, (5, 4))
    return [table], lambda tt: proj(T.embedding_lookup(tt, ids))


def case_cross_entropy(rng):
    logits = rng.standard_normal((4, 7))
    targets = rng.integers(0, 7, size=4)
    return [logits], lambda tl: T.cross_entropy(tl, targets)


def case_composite(rng):
    # a miniature attention-shaped composition touching most ops at once
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 6))
    g = rng.uniform(0.5, 1.5, size=(6,))
    b = rng.standard_normal((6,))
    targets = rng.integers(0, 6, size=3)

    def fn(tx, tw, tg, tb):
        h = T.layernorm(tx, tg, tb)
        s = T.softmax_rows(T.scale(T.matmul(h, tw), 0.5))
        out = T.matmul(s, T.relu(tw))
        return T.cross_entropy(T.slice_rows(out, 0, 3), targets)

    return [x, w, g, b], fn


ALL_CASES = [
    ("add", case_add),
    ("sub", case_sub),
    ("mul", case_mul),
    ("scale", case_scale),
    ("relu", case_relu),
    ("square", case_square),
    ("matmul", case_matmul),
    ("matmul_batched", case_matmul_batched),
    ("reshape_transpose", case_reshape_transpose),
    ("slice_rows", case_slice_rows),
    ("mean_rows", case_mean_rows),
    ("stack_rows", case_stack_rows),
    ("softmax_rows", case_softmax),
    ("layernorm", case_layernorm),
    ("embedding_lookup", case_embedding),
    ("cross_entropy", case_cross_entropy),
    ("composite", case_composite),
]


def max_relative_error(make, seed: int, h: float = 1e-5) -> float:
    """Taped grads vs central differences; returns the worst input's error."""
    rng = np.random.default_rng(seed)
    arrays, fn = make(rng)
    tensors = [T.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    T.backward(fn(*tensors))
    worst = 0.0
    for i, base in enumerate(arrays):
        def value_at(x, i=i):
            args = [
                T.Tensor(x if j == i else arrays[j], dtype=np.float64)
                for j in range(len(arrays))
            ]
            return float(fn(*args).data)

        fd = central_diff_grad(value_at, base, h=h)
        worst = max(worst, relative_error(tensors[i].grad, fd))
    return worst
