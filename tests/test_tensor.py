"""Autodiff core: gradients vs finite differences, op contracts, HVP."""

import numpy as np
import pytest

from shlm import tensor as T
from shlm.errors import (
    DomainError,
    EmptyTapeError,
    InvalidTokenIdError,
    NonFiniteError,
    NotScalarError,
    ShapeMismatchError,
    ZeroVectorError,
)

from .gradcheck_cases import ALL_CASES, max_relative_error
from .oracles import relative_error


@pytest.mark.parametrize("name,make", ALL_CASES, ids=[n for n, _ in ALL_CASES])
def test_grad_matches_finite_differences(name, make):
    for seed in range(3):
        err = max_relative_error(make, seed)
        assert err <= 1e-4, f"{name} seed {seed}: rel err {err:.3e}"


def test_sum_grad_is_ones():
    x = T.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    T.backward(T.tsum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_quadratic_grad_is_qx():
    rng = np.random.default_rng(0)
    n = 8
    a = rng.standard_normal((n, n))
    q = (a + a.T) / 2.0
    x0 = rng.standard_normal(n)
    x = T.Tensor(x0, requires_grad=True, dtype=np.float64)
    row = T.reshape(x, (1, n))
    loss = T.scale(T.tsum(T.mul(T.matmul(row, T.constant(q, dtype=np.float64)), row)), 0.5)
    T.backward(loss)
    assert relative_error(x.grad, q @ x0) <= 1e-10


def test_backward_accumulates_across_calls():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=np.float64)
    loss = T.tsum(T.square(x))
    T.backward(loss)
    first = x.grad.copy()
    T.backward(loss)
    assert np.allclose(x.grad, 2.0 * first)


def test_shared_subexpression_grads():
    # y = x*x reused twice: loss = sum(y + y) -> dloss/dx = 4x
    x = T.Tensor([1.0, -2.0], requires_grad=True, dtype=np.float64)
    y = T.mul(x, x)
    T.backward(T.tsum(T.add(y, y)))
    assert np.allclose(x.grad, 4.0 * x.data)


_LEAVES = ("x", "w1", "gamma", "beta", "w2")


def _two_layer_loss(dtype):
    """A small net touching matmul, layernorm and elementwise ops; returns
    (leaves by name, scalar loss)."""
    rng = np.random.default_rng(7)
    shapes = {"x": (4, 6), "w1": (6, 5), "gamma": (5,), "beta": (5,), "w2": (5, 3)}
    p = {n: T.Tensor(rng.standard_normal(shapes[n]), requires_grad=True, dtype=dtype)
         for n in _LEAVES}
    h = T.relu(T.layernorm(T.matmul(p["x"], p["w1"]), p["gamma"], p["beta"]))
    out = T.add(T.matmul(h, p["w2"]), T.constant(rng.standard_normal(3), dtype=dtype))
    return p, T.tsum(T.mul(out, out))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", _LEAVES)
def test_backward_wrt_one_leaf_is_bit_exact(dtype, name):
    full, loss = _two_layer_loss(dtype)
    T.backward(loss)
    lean, loss = _two_layer_loss(dtype)
    T.backward(loss, wrt=[lean[name]])
    assert lean[name].grad.dtype == full[name].grad.dtype
    assert np.array_equal(lean[name].grad, full[name].grad)
    assert all(lean[n].grad is None for n in _LEAVES if n != name)


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NotScalarError):
        T.backward(T.square(x))


def test_backward_requires_tape():
    with pytest.raises(EmptyTapeError):
        T.backward(T.Tensor(3.0))


def test_no_grad_selects_array_ops_and_taped_ops_still_tape():
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with T.no_grad():
        assert T.ops() is T.ARRAY
        loss = T.tsum(T.mul(a, a))
    assert T.ops() is T.TAPED
    T.backward(loss)
    np.testing.assert_array_equal(a.grad, [2.0, 4.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    s = T.softmax_rows(T.Tensor(rng.standard_normal((5, 9)) * 10.0))
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)


def test_layernorm_normalizes_rows():
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.standard_normal((6, 16)) * 3.0 + 1.0, dtype=np.float64)
    ones = T.Tensor(np.ones(16), dtype=np.float64)
    zeros = T.Tensor(np.zeros(16), dtype=np.float64)
    y = T.layernorm(x, ones, zeros).data
    assert np.max(np.abs(y.mean(axis=-1))) <= 1e-6
    assert np.max(np.abs(y.var(axis=-1) - 1.0)) <= 1e-4


def test_matmul_shape_errors():
    a = T.Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeMismatchError):
        T.matmul(a, T.Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeMismatchError):
        T.matmul(a, T.Tensor(np.zeros(4)))


def test_add_shape_error():
    with pytest.raises(ShapeMismatchError):
        T.add(T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((2, 4))))


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_trips():
    big = T.Tensor(np.array([1e300]), dtype=np.float64)
    with pytest.raises(NonFiniteError):
        T.mul(big, big)
    with pytest.raises(NonFiniteError):
        T.Tensor([np.inf])


def test_embedding_rejects_bad_ids():
    table = T.Tensor(np.zeros((4, 2)))
    with pytest.raises(InvalidTokenIdError):
        T.embedding_lookup(table, np.array([0, 4]))
    with pytest.raises(InvalidTokenIdError):
        T.embedding_lookup(table, np.array([-1]))


def test_embedding_repeated_ids_accumulate():
    table = T.Tensor(np.ones((3, 2)), requires_grad=True, dtype=np.float64)
    out = T.embedding_lookup(table, np.array([1, 1, 1]))
    T.backward(T.tsum(out))
    assert np.array_equal(table.grad[1], [3.0, 3.0])
    assert np.array_equal(table.grad[0], [0.0, 0.0])


def test_cross_entropy_uniform_logits():
    vocab = 11
    logits = T.Tensor(np.zeros((4, vocab)), dtype=np.float64)
    loss = T.cross_entropy(logits, np.array([0, 3, 7, 10]))
    assert abs(float(loss.data) - np.log(vocab)) <= 1e-12


def test_cross_entropy_rejects_bad_targets():
    logits = T.Tensor(np.zeros((2, 5)))
    with pytest.raises(InvalidTokenIdError):
        T.cross_entropy(logits, np.array([0, 5]))


def test_hvp_matches_quadratic():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 8
        a = rng.standard_normal((n, n))
        q = (a + a.T) / 2.0
        qc = T.constant(q, dtype=np.float64)

        def loss_fn(x):
            row = T.reshape(x, (1, n))
            return T.scale(T.tsum(T.mul(T.matmul(row, qc), row)), 0.5)

        point = T.Tensor(rng.standard_normal(n), dtype=np.float64)
        v = rng.standard_normal(n)
        hv = T.hessian_vector_product(loss_fn, point, T.Tensor(v, dtype=np.float64))
        assert relative_error(hv.data, q @ v) <= 1e-3, f"seed {seed}"


def test_hvp_with_base_gradient_is_bit_identical():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 8
        a = rng.standard_normal((n, n))
        qc = T.constant((a + a.T) / 2.0, dtype=np.float64)

        def loss_fn(x):
            row = T.reshape(x, (1, n))
            return T.scale(T.tsum(T.mul(T.matmul(row, qc), row)), 0.5)

        point = T.Tensor(rng.standard_normal(n), dtype=np.float64)
        v = T.Tensor(rng.standard_normal(n), dtype=np.float64)
        x = T.Tensor(point.data, requires_grad=True, dtype=np.float64)
        T.backward(loss_fn(x))
        want = T.hessian_vector_product(loss_fn, point, v)
        got = T.hessian_vector_product(loss_fn, point, v, grad0=x.grad)
        assert np.array_equal(got.data, want.data), f"seed {seed}"
    with pytest.raises(ShapeMismatchError):
        T.hessian_vector_product(loss_fn, point, v, grad0=np.zeros(n + 1))


def test_hvp_rejects_zero_direction():
    def loss_fn(x):
        return T.tsum(T.square(x))

    a = T.Tensor(np.ones(3), dtype=np.float64)
    with pytest.raises(ZeroVectorError):
        T.hessian_vector_product(loss_fn, a, T.Tensor(np.zeros(3), dtype=np.float64))
    with pytest.raises(DomainError):
        T.hessian_vector_product(loss_fn, a, T.Tensor(np.ones(3)), eps=0.0)
