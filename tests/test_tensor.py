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


def _tied_loss(table, ids):
    """One sequence through a tied table: a lookup, then a readout
    against the table's transpose."""
    x = T.relu(T.embedding_lookup(table, ids[:-1]))
    return T.cross_entropy(T.matmul(x, T.transpose(table, (1, 0))), ids[1:])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_streamed_backward_of_a_tied_table_equals_the_joint_one(dtype):
    # a leaf adds each contribution into its grad as the VJP that makes it
    # runs, so one backward per sequence adds the tied table's lookup and
    # readout parts in the same order as one backward through the sum
    rng = np.random.default_rng(0)
    w = rng.standard_normal((12, 5))
    seqs = [rng.integers(0, 12, size=9) for _ in range(2)]
    joint = T.Tensor(w, requires_grad=True, dtype=dtype)
    T.backward(T.add(_tied_loss(joint, seqs[0]), _tied_loss(joint, seqs[1])))
    streamed = T.Tensor(w, requires_grad=True, dtype=dtype)
    for ids in seqs:
        T.backward(_tied_loss(streamed, ids))
    assert streamed.grad.dtype == joint.grad.dtype
    assert np.array_equal(streamed.grad, joint.grad)
    # summing each sequence's own gradient instead gives other bits here
    parts = []
    for ids in seqs:
        one = T.Tensor(w, requires_grad=True, dtype=dtype)
        T.backward(_tied_loss(one, ids))
        parts.append(one.grad)
    assert not np.array_equal(parts[0] + parts[1], joint.grad)


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


def test_binary_vjps_skip_a_parent_they_are_not_asked_for():
    rng = np.random.default_rng(0)
    for op in (T.add, T.sub, T.mul, T.matmul):
        a, b = (T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
                for _ in range(2))
        out = op(a, b)
        g = rng.standard_normal(out.shape).astype(out.dtype)
        full = out._vjp(g, (True, True))
        ga, gb = out._vjp(g, (False, True))
        assert ga is None and np.array_equal(gb, full[1]), op.__name__
        ga, gb = out._vjp(g, (True, False))
        assert gb is None and np.array_equal(ga, full[0]), op.__name__


def test_layernorm_vjp_skips_the_affine_parents_it_is_not_asked_for():
    rng = np.random.default_rng(1)
    x, gamma, beta = (T.Tensor(rng.standard_normal(shape), requires_grad=True)
                      for shape in ((2, 3, 5), (5,), (5,)))
    out = T.layernorm(x, gamma, beta)
    g = rng.standard_normal(out.shape).astype(out.dtype)
    full = out._vjp(g, (True, True, True))
    da, dgamma, dbeta = out._vjp(g, (True, False, False))
    assert dgamma is None and dbeta is None
    assert np.array_equal(da, full[0])


# the taped ``_`` ops, the args after ``a``, and their out-of-place op
_INPLACE = [
    ("add_", lambda rng: (T.Tensor(rng.standard_normal(4), requires_grad=True),), T.add),
    ("scale_", lambda rng: (0.37,), T.scale),
    ("relu_", lambda rng: (), T.relu),
    ("softmax_rows_", lambda rng: (), T.softmax_rows),
]


def _inplace_run(op, make_args, seed: int):
    """``op`` on a (3, 4) matmul result, projected to a scalar and
    back-propagated: (a, result, grads of every leaf)."""
    rng = np.random.default_rng(seed)
    x, w = (T.Tensor(rng.standard_normal(shape), requires_grad=True)
            for shape in ((3, 5), (5, 4)))
    args = make_args(rng)
    a = T.matmul(x, w)
    out = op(a, *args)
    T.backward(T.tsum(T.mul(out, T.constant(rng.standard_normal(out.shape)))))
    leaves = [x, w, *(t for t in args if isinstance(t, T.Tensor))]
    return a, out, [t.grad for t in leaves]


@pytest.mark.parametrize("name,make_args,plain", _INPLACE, ids=[c[0] for c in _INPLACE])
def test_taped_inplace_op_writes_into_a_temporary_with_the_same_bits(name, make_args, plain):
    want_a, want, want_grads = _inplace_run(plain, make_args, 3)
    a, out, grads = _inplace_run(getattr(T.TAPED, name), make_args, 3)
    assert out.data is a.data
    assert not np.shares_memory(want.data, want_a.data)
    assert np.array_equal(out.data, want.data)
    for got, ref in zip(grads, want_grads):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("name,make_args,plain", _INPLACE, ids=[c[0] for c in _INPLACE])
def test_taped_inplace_op_leaves_a_leaf_constant_or_view_unwritten(name, make_args, plain):
    op, rng = getattr(T.TAPED, name), np.random.default_rng(4)
    args = make_args(rng)
    view = T.transpose(T.matmul(T.Tensor(rng.standard_normal((4, 5))),
                                T.Tensor(rng.standard_normal((5, 3)))), (1, 0))
    for a in (T.Tensor(rng.standard_normal((3, 4)), requires_grad=True),
              T.constant(rng.standard_normal((3, 4))), view):
        before = a.data.copy()
        out = op(a, *args)
        assert np.array_equal(a.data, before) and not np.shares_memory(out.data, a.data)
        assert np.array_equal(out.data, plain(a, *args).data)


def test_taped_add_falls_back_when_the_result_outgrows_a():
    rng = np.random.default_rng(5)
    a = T.matmul(*(T.Tensor(rng.standard_normal(shape), dtype=np.float32)
                   for shape in ((1, 2), (2, 4))))
    before = a.data.copy()
    for b in (T.Tensor(rng.standard_normal((3, 4)), dtype=np.float32),   # grows the shape
              T.Tensor(rng.standard_normal((1, 4)), dtype=np.float64)):   # widens the dtype
        out = T.TAPED.add_(a, b)
        assert np.array_equal(a.data, before) and not np.shares_memory(out.data, a.data)
        assert out.shape == np.broadcast_shapes(a.shape, b.shape)
        assert out.dtype == np.result_type(a.data, b.data)


def _probe(parent, seed: np.ndarray):
    """A scalar whose VJP hands ``parent`` the array ``seed`` itself."""
    return T._from_op(np.asarray(0.0), (parent,), "probe", lambda g, need: (seed,))


def test_a_leaf_never_adopts_an_adjoint_it_shares():
    want = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    for build in (lambda x: T.add(x, x),                           # g itself, twice
                  lambda x: T.add(T.reshape(x, (2, 3)),          # views of g
                                  T.transpose(T.transpose(x, (1, 0)), (1, 0)))):
        seed = want.copy()
        x = T.Tensor(np.zeros((2, 3)), requires_grad=True)
        T.backward(_probe(build(x), seed))
        assert np.array_equal(x.grad, 2.0 * want)
        assert not np.shares_memory(x.grad, seed)
        assert np.array_equal(seed, want)


def test_an_adopted_gradient_has_the_bits_of_zeros_plus_g():
    x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    T.backward(T.tsum(T.scale(x, -0.0)))    # a fresh contribution of -0.0s
    assert np.array_equal(x.grad, np.zeros(3)) and not np.signbit(x.grad).any()


def test_hvp_matches_quadratic():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 8
        a = rng.standard_normal((n, n))
        q = (a + a.T) / 2.0
        qc = T.constant(q, dtype=np.float64)

        def loss_fn(xs):
            row = xs[0]   # (1, n)
            return T.reshape(T.scale(T.tsum(T.mul(T.matmul(row, qc), row)), 0.5), (1,))

        point = rng.standard_normal(n)[None]
        v = rng.standard_normal(n)
        (hv,) = T.hessian_vector_product(loss_fn, [point], [v[None]])
        assert relative_error(hv[0], q @ v) <= 1e-3, f"seed {seed}"


def test_hvp_with_base_gradient_is_bit_identical():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 8
        a = rng.standard_normal((n, n))
        qc = T.constant((a + a.T) / 2.0, dtype=np.float64)

        def loss_fn(xs):
            row = xs[0]   # (1, n)
            return T.reshape(T.scale(T.tsum(T.mul(T.matmul(row, qc), row)), 0.5), (1,))

        point = rng.standard_normal(n)[None]
        v = rng.standard_normal(n)[None]
        x = T.Tensor(point, requires_grad=True, dtype=np.float64)
        T.backward(T.tsum(loss_fn([x])))
        (want,) = T.hessian_vector_product(loss_fn, [point], [v])
        (got,) = T.hessian_vector_product(loss_fn, [point], [v], grad0=[x.grad])
        assert np.array_equal(got, want), f"seed {seed}"
    with pytest.raises(ShapeMismatchError):
        T.hessian_vector_product(loss_fn, [point], [v], grad0=[np.zeros((1, n + 1))])


def test_hvp_rejects_zero_direction():
    def loss_fn(xs):
        return T.reshape(T.tsum(T.square(xs[0])), (1,))

    a = [np.ones((1, 3))]
    with pytest.raises(ZeroVectorError):
        T.hessian_vector_product(loss_fn, a, [np.zeros((1, 3))])
    with pytest.raises(DomainError):
        T.hessian_vector_product(loss_fn, a, [np.ones((1, 3))], eps=0.0)
