"""PCA: orthonormality, variance ordering, sign convention, validation."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tgl.pca import pca


def test_recovers_dominant_direction():
    rng = np.random.default_rng(0)
    d = np.array([3.0, 4.0]) / 5.0
    data = rng.normal(size=(500, 1)) * d + rng.normal(size=(500, 2)) * 0.01
    comps, proj, variances = pca(data, 1)
    assert comps.shape == (1, 2)
    assert proj.shape == (500, 1)
    # component parallel to the generating direction
    assert abs(abs(comps[0] @ d) - 1.0) < 1e-3
    assert variances[0] == pytest.approx(1.0, rel=0.2)


def test_components_orthonormal():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(40, 7))
    comps, _, _ = pca(data, 4)
    np.testing.assert_allclose(comps @ comps.T, np.eye(4), atol=1e-10)


def test_variances_descending_and_match_projection():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(60, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
    comps, proj, variances = pca(data, 5)
    assert variances == sorted(variances, reverse=True)
    # stated variances equal the variance of the projected coordinates
    expect = proj.var(axis=0, ddof=1)
    np.testing.assert_allclose(variances, expect, rtol=1e-10)


def test_projection_is_of_centered_data():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(30, 3)) + 100.0
    _, proj, _ = pca(data, 2)
    np.testing.assert_allclose(proj.mean(axis=0), 0.0, atol=1e-9)


def test_sign_convention_first_loading_positive():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(25, 4))
    comps, _, _ = pca(data, 3)
    for row in comps:
        lead = row[np.abs(row) > 1e-12][0]
        assert lead > 0


def test_sign_convention_makes_result_deterministic():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(25, 4))
    c1, p1, _ = pca(data, 2)
    c2, p2, _ = pca(data.copy(), 2)
    np.testing.assert_array_equal(c1, c2)
    np.testing.assert_array_equal(p1, p2)


def test_exact_reconstruction_with_full_rank():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(20, 4))
    comps, proj, _ = pca(data, 4)
    recon = proj @ comps + data.mean(axis=0)
    np.testing.assert_allclose(recon, data, atol=1e-10)


def test_zero_variance_direction_gets_zero_variance():
    rng = np.random.default_rng(7)
    data = np.zeros((30, 3))
    data[:, 0] = rng.normal(size=30)
    _, _, variances = pca(data, 3)
    assert variances[1] == pytest.approx(0.0, abs=1e-20)
    assert variances[2] == pytest.approx(0.0, abs=1e-20)


def test_input_validation():
    with pytest.raises(ValueError):
        pca(np.ones(5), 1)  # 1-D
    with pytest.raises(ValueError):
        pca(np.ones((1, 5)), 1)  # single sample
    with pytest.raises(ValueError):
        pca(np.ones((5, 3)), 0)  # k too small
    with pytest.raises(ValueError):
        pca(np.ones((5, 3)), 4)  # k > min(n, d)
    bad = np.ones((5, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        pca(bad, 1)


def pca_inputs(n: int, d: int, kind: str, seed: int) -> np.ndarray:
    """Gaussian data with uneven column scales, or one of three rank-deficient shapes."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(size=d)
    if kind == "duplicate rows":
        data[n // 2:] = data[:n - n // 2]
    elif kind == "zero columns":
        data[:, ::2] = 0.0
    elif kind == "one spread column":
        data[:] = 3.0
        data[:, seed % d] = rng.normal(size=n)
    return data


@given(n=st.integers(2, 40), d=st.integers(1, 40), k_from_top=st.integers(0, 40),
       kind=st.sampled_from(["full", "duplicate rows", "zero columns", "one spread column"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, d=9, k_from_top=0, kind="full", seed=0)                # two samples
@example(n=30, d=5, k_from_top=0, kind="full", seed=1)               # n > d, k = d
@example(n=12, d=12, k_from_top=0, kind="duplicate rows", seed=2)    # n = d, k = n
@example(n=25, d=8, k_from_top=0, kind="zero columns", seed=3)
@example(n=8, d=25, k_from_top=0, kind="one spread column", seed=4)
def test_matches_the_full_svd(n, d, k_from_top, kind, seed):
    data = pca_inputs(n, d, kind, seed)
    k = max(1, min(n, d) - k_from_top)
    comps, proj, variances = pca(data, k)
    centered = data - data.mean(axis=0)
    _, s, vt_ref = np.linalg.svd(centered, full_matrices=False)
    np.testing.assert_allclose(variances, s[:k] ** 2 / (n - 1),
                               rtol=1e-9, atol=1e-12 * s[0] ** 2)
    np.testing.assert_allclose(comps @ comps.T, np.eye(k), rtol=0, atol=1e-10)
    gap = s[k - 1] - (s[k] if k < s.size else 0.0)
    if gap > 1e-6 * s[0]:
        np.testing.assert_allclose(np.abs(comps @ vt_ref[:k].T), np.eye(k), rtol=0, atol=1e-8)
    again = pca(data.copy(), k)
    assert comps.tobytes() == again[0].tobytes()
    assert proj.tobytes() == again[1].tobytes()
    assert variances == again[2]
