"""Adam optimizer: update arithmetic, convergence, gradient validation."""
from __future__ import annotations

import math

import numpy as np
import pytest

import tgl
from tgl.optim import ADAM_BLOCK, BETA1, BETA2, EPSILON, AdamConfig, Parameter, adam_step, \
    glorot_uniform
from tgl.tensor import NonFiniteError, Tensor, _splits, backward, mse_loss


def _param(value, name: str) -> Parameter:
    """A fresh parameter over its own [value, adam_m, adam_v] block."""
    value = np.asarray(value, dtype=np.float64)
    return Parameter(np.stack([value, np.zeros_like(value), np.zeros_like(value)]), name)


def quadratic_grad(p: Parameter, target: np.ndarray) -> None:
    """The gradient of mean((value - target)^2), handed to p through the tape."""
    def into_p(g):
        p.grad = g

    backward(mse_loss(Tensor(p.value, into_p), target))


def test_first_step_matches_hand_computed_update():
    cfg = AdamConfig(learning_rate=0.1)
    p = _param(np.array([1.0, -2.0]), "w")
    p.grad = np.array([0.5, -0.25])
    g = p.grad.copy()
    adam_step([p], cfg)
    # fresh moments: m_hat = g, v_hat = g^2, so step = lr * g / (|g| + eps)
    expect = np.array([1.0, -2.0]) - cfg.learning_rate * g / (np.abs(g) + EPSILON)
    np.testing.assert_allclose(p.value, expect, rtol=0, atol=1e-12)
    assert p.step_count == 1
    assert p.grad is None  # consumed by the step


def test_many_steps_match_reference_implementation():
    cfg = AdamConfig(learning_rate=0.05)
    p = _param(np.array([[0.3, -1.2], [2.0, 0.0]]), "w")
    ref_w = p.value.copy()
    ref_m = np.zeros_like(ref_w)
    ref_v = np.zeros_like(ref_w)
    rng = np.random.default_rng(9)
    for t in range(1, 31):
        g = rng.normal(size=ref_w.shape)
        p.grad = g.copy()
        adam_step([p], cfg)
        ref_m = BETA1 * ref_m + (1 - BETA1) * g
        ref_v = BETA2 * ref_v + (1 - BETA2) * g * g
        m_hat = ref_m / (1 - BETA1 ** t)
        v_hat = ref_v / (1 - BETA2 ** t)
        ref_w = ref_w - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
        np.testing.assert_allclose(p.value, ref_w, rtol=0, atol=1e-12)


# (21526, 120) is the 384-node toy GCN's first fc weight, which adam_step updates in pieces
@pytest.mark.parametrize("shape", [(1,), (ADAM_BLOCK - 1,), (ADAM_BLOCK + 1,), (130, 257),
                                   (21526, 120)])
def test_blocked_step_is_bitwise_textbook_adam(shape):
    cfg = AdamConfig(learning_rate=3e-3)
    rng = np.random.default_rng(shape[0])
    p = _param(rng.normal(size=shape), "w")
    x, m, v = p.value.copy(), np.zeros(shape), np.zeros(shape)
    for t in range(1, 6):
        g = rng.normal(size=shape)
        p.grad = g.copy()
        adam_step([p], cfg)
        # Kingma & Ba, Algorithm 1, written out whole-array
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        x = x - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
        np.testing.assert_array_equal(p.value, x)
        np.testing.assert_array_equal(p.adam_m, m)
        np.testing.assert_array_equal(p.adam_v, v)
    assert p.step_count == 5


def test_converges_on_scalar_quadratic():
    cfg = AdamConfig(learning_rate=0.05)
    p = _param(np.array([10.0]), "w")
    target = np.array([3.0])
    for _ in range(400):
        quadratic_grad(p, target)
        adam_step([p], cfg)
    assert abs(p.value[0] - 3.0) < 1e-2


def test_missing_gradient_aborts_whole_step():
    cfg = AdamConfig()
    a = _param(np.array([1.0]), "a")
    b = _param(np.array([2.0]), "b")
    a.grad = np.array([0.5])
    with pytest.raises(ValueError, match="no gradient"):
        adam_step([a, b], cfg)
    # the valid parameter must be untouched too
    assert a.value.tolist() == [1.0]
    assert a.step_count == 0


def test_non_finite_gradient_aborts_whole_step():
    cfg = AdamConfig()
    a = _param(np.array([1.0]), "a")
    b = _param(np.array([2.0]), "b")
    a.grad = np.array([0.5])
    b.grad = np.array([float("nan")])
    with pytest.raises(NonFiniteError):
        adam_step([a, b], cfg)
    assert a.value.tolist() == [1.0]
    assert b.value.tolist() == [2.0]


def test_non_finite_gradient_in_the_last_piece_aborts_whole_step():
    cfg = AdamConfig()
    shape = (21526, 120)
    assert _splits(math.prod(shape))
    a = _param(np.ones(shape), "a")
    a.grad = np.ones(shape)
    a.grad[-1, -1] = np.nan
    with pytest.raises(NonFiniteError):
        adam_step([a], cfg)
    assert (a.value == 1.0).all() and a.step_count == 0


def test_shape_mismatch_rejected():
    cfg = AdamConfig()
    a = _param(np.array([1.0, 2.0]), "a")
    a.grad = np.array([0.5])
    with pytest.raises(ValueError, match="shape"):
        adam_step([a], cfg)


def test_parameter_needs_a_contiguous_three_row_block():
    """adam_step updates flat views of the block, which a strided block would not give."""
    with pytest.raises(ValueError, match="block"):
        Parameter(np.zeros((3, 4, 2))[:, :, 0], "w")
    with pytest.raises(ValueError, match="block"):
        Parameter(np.zeros((2, 4)), "w")
    block = np.zeros((3, 4))
    p = Parameter(block, "w")
    assert np.shares_memory(p.value, block) and p.adam_v.base is block


def test_config_validation():
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=0.0)


def test_glorot_uniform_bound_and_determinism():
    rng = np.random.default_rng(4)
    w = glorot_uniform(rng, 30, 20)
    assert w.shape == (30, 20)
    limit = np.sqrt(6.0 / 50.0)
    assert np.abs(w).max() <= limit
    w2 = glorot_uniform(np.random.default_rng(4), 30, 20)
    np.testing.assert_array_equal(w, w2)


def test_default_learning_rate_matches_training_recipe():
    assert AdamConfig().learning_rate == pytest.approx(1e-5)
    assert tgl.AdamConfig is AdamConfig
