"""Contracts of the finite-difference checker itself."""

import numpy as np
import pytest

from bevsot import tensor as T
from bevsot.exceptions import NumericError, ShapeError
from bevsot.gradcheck import gradcheck, gradcheck_params
from bevsot.tensor import Tensor


def test_sum_has_zero_error():
    # integer values and a power-of-two epsilon keep every FD evaluation
    # exact, so analytic (all ones) and numeric gradients agree bit-for-bit
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    assert gradcheck(T.sum_all, x, eps=0.25) == 0.0


def test_nonscalar_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        gradcheck(lambda t: T.add(t, t), x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_in_forward_is_reported_not_silent():
    x = Tensor(np.array([1.0]), requires_grad=True)

    def f(t):
        poison = T.mul(t, Tensor(np.array([np.inf])))
        return T.sum_all(T.sub(poison, poison))

    with pytest.raises(NumericError):
        gradcheck(f, x)


def test_gradcheck_params_sampled(rng):
    a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    f = lambda: T.sum_all(T.silu(T.matmul(a, b)))
    errs = gradcheck_params(f, [("a", a), ("b", b)], samples_per_param=4, rng=rng)
    assert set(errs) == {"a", "b"}
    assert max(errs.values()) < 1e-6


@pytest.mark.parametrize("samples", [0, -1])
def test_gradcheck_params_rejects_fewer_than_one_sample(rng, samples):
    a = Tensor(rng.standard_normal(3), requires_grad=True)
    with pytest.raises(ValueError, match="samples_per_param"):
        gradcheck_params(lambda: T.sum_all(a), [("a", a)], samples_per_param=samples, rng=rng)


def test_gradcheck_catches_wrong_gradient(rng):
    # a deliberately broken op: forward x^2 with backward claiming 3x
    from bevsot.tensor import _out

    def bad_square(a):
        return _out(a.data ** 2, "bad", (a,), lambda g: (3.0 * a.data * g,))

    x = Tensor(rng.standard_normal(4) + 2.0, requires_grad=True)
    assert gradcheck(lambda t: T.sum_all(bad_square(t)), x) > 0.1
