"""Parameters and the Adam update rule."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import positive
from .tensor import NonFiniteError, _all_finite, _finite, _in_pieces, _splits

# Elements per block of the Adam update: value, gradient, both moments and the
# two scratch buffers then take 768 KiB, inside a core's L2 cache.  On 2.6 M
# parameters (one BLAS thread, 2-core Xeon VM) blocks of 4k/16k/64k elements
# took 37/30/31 ms against 64 ms for the whole-array update.
ADAM_BLOCK = 16384
# the decay rates and denominator guard of Kingma & Ba, *Adam* (ICLR 2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-5

    def __post_init__(self):
        positive("learning_rate", self.learning_rate)


class Parameter:
    """A trainable array and its Adam moments: the rows of one block [3, *shape].

    `value`, `adam_m` and `adam_v` are views of block[0], block[1] and block[2],
    so `adam_step` updates the block in place.  The value must be finite.
    `grad` is the gradient a backward pass added, until `adam_step` takes it.
    """

    __slots__ = ("name", "value", "grad", "adam_m", "adam_v", "step_count")

    def __init__(self, block: np.ndarray, name: str):
        if block.dtype != np.float64 or not block.flags.c_contiguous or block.shape[:1] != (3,):
            raise ValueError(f"parameter {name!r} needs a C-contiguous float64 block "
                             f"[3, *shape], got {block.dtype} {block.shape}")
        _finite(block[0])
        self.name, self.value, self.grad, self.step_count = name, block[0], None, 0
        self.adam_m, self.adam_v = block[1], block[2]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.shape}, steps={self.step_count})"


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6/(fan_in+fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fans must be positive, got ({fan_in}, {fan_out})")
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def adam_step(params: list[Parameter], cfg: AdamConfig) -> None:
    """One Adam update over `params`; zeroes gradients afterwards.

    The whole step aborts (no parameter touched) if any gradient is
    missing, mis-shaped, or non-finite.
    """
    for i, p in enumerate(params):
        g = p.grad
        label = f"parameter {i} ({p.name})"
        if g is None:
            raise ValueError(f"{label} has no gradient; run backward before adam_step")
        if g.shape != p.value.shape:
            raise ValueError(f"{label} gradient shape {g.shape} != value shape {p.value.shape}")
        if not _all_finite(g):
            raise NonFiniteError(f"non-finite gradient in {label}; step aborted")

    scratch = np.empty((2, 2, ADAM_BLOCK))   # two buffers per piece; the worker allocates none
    for i, p in enumerate(params):
        t = p.step_count + 1
        x, g, m, v = (arr.reshape(-1) for arr in (p.value, p.grad, p.adam_m, p.adam_v))

        def update(lo, hi):
            _adam_update(x[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], cfg, t, *scratch[int(lo > 0)])

        if _splits(x.size):   # in pieces of whole blocks
            _in_pieces(x.size, update, ADAM_BLOCK)
        else:
            update(0, x.size)
        p.step_count = t
        p.grad = None
        if not _all_finite(p.value):
            raise NonFiniteError(f"non-finite value in parameter {i} after Adam step {t}")


def _adam_update(x, g, m, v, cfg: AdamConfig, t: int, a: np.ndarray, b: np.ndarray) -> None:
    """Adam step t on flat views, in place, ADAM_BLOCK elements at a time.

    Op for op the textbook update, so every bit matches it:
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
    x -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps).
    `a` and `b` are the only scratch; no full-size temporary is made.
    """
    c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    for s in range(0, x.size, ADAM_BLOCK):
        xs, gs, ms, vs = x[s:s + ADAM_BLOCK], g[s:s + ADAM_BLOCK], m[s:s + ADAM_BLOCK], \
            v[s:s + ADAM_BLOCK]
        sa, sb = a[:xs.size], b[:xs.size]
        ms *= BETA1
        np.multiply(gs, 1.0 - BETA1, out=sa)
        ms += sa
        vs *= BETA2
        np.multiply(gs, gs, out=sa)
        sa *= 1.0 - BETA2
        vs += sa
        np.divide(ms, c1, out=sa)           # m_hat
        sa *= cfg.learning_rate
        np.divide(vs, c2, out=sb)           # v_hat
        np.sqrt(sb, out=sb)
        sb += EPSILON
        sa /= sb
        xs -= sa
