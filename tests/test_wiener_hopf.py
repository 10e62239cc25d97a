import numpy as np
import pytest

from conftest import golden_symbol, random_canonical_1d, random_nonzero_winding_1d
from qtop.errors import InputError, NotCanonical, SingularOnTorus, Unstable
from qtop.symbols import LaurentSymbol
from qtop.wiener_hopf import (
    COND_CAP,
    EXACT_COND_ROWS,
    _solve_plus_inverse,
    canonical_factorize,
    certify_invertible,
    partial_indices,
    radial_scan,
    toeplitz_kernel_dim,
    verify_factorization,
    winding_of_det,
)


def scalar(terms):
    return LaurentSymbol(1, 1, [((k,), np.array([[c]])) for k, c in terms])


def test_winding_of_scalars():
    assert winding_of_det(scalar([(1, 1.0), (0, -2.0)])) == 0   # z - 2
    assert winding_of_det(scalar([(1, 1.0), (0, -0.5)])) == 1   # z - 0.5
    assert winding_of_det(scalar([(-1, 1.0), (0, -0.5)])) == -1  # 1/z - 0.5


class _NaNSymbol:
    """One-variable stand-in whose values are all NaN."""

    num_vars = 1

    def eval_grid(self, axes):
        return np.full((len(axes[0]), 1, 1), np.nan, dtype=complex)


def test_certify_invertible_rejects_vanishing_det():
    with pytest.raises(SingularOnTorus):
        certify_invertible(scalar([(1, 1.0), (0, -1.0)]))  # z - 1
    with pytest.raises(SingularOnTorus):
        certify_invertible(_NaNSymbol())


def test_large_section_condition_estimate():
    sl = golden_symbol().slice(0, (np.exp(1.1j),)).symbol
    m = 1100
    assert (m + 1) * sl.band_dim > EXACT_COND_ROWS
    h_big, cond_big = _solve_plus_inverse(sl, m)
    h_small, _ = _solve_plus_inverse(sl, 32)
    np.testing.assert_allclose(h_big[:33], h_small, rtol=0, atol=1e-12)
    assert np.isfinite(cond_big) and cond_big < COND_CAP


def test_monomial_partial_indices():
    assert partial_indices(scalar([(2, 1.0)])) == (2,)
    assert partial_indices(LaurentSymbol.identity(1, 3)) == (0, 0, 0)
    diag = LaurentSymbol(1, 2, [
        ((1,), np.diag([1.0, 0.0])),
        ((-1,), np.diag([0.0, 1.0])),
    ])
    assert partial_indices(diag) == (1, -1)


def test_golden_slices_are_canonical_both_variables():
    f = golden_symbol()
    for var in (0, 1):
        for angle in (0.0, 1.1, 2.9, 4.4):
            sl = f.slice(var, (np.exp(1j * angle),))
            assert partial_indices(sl) == (0, 0)
            fact = canonical_factorize(sl)
            assert fact.residual <= 1e-8
            assert verify_factorization(fact).residual <= 1e-8


def test_factorize_rejects_noncanonical_with_indices():
    diag = LaurentSymbol(1, 2, [
        ((1,), np.diag([1.0, 0.0])),
        ((-1,), np.diag([0.0, 1.0])),
    ])
    with pytest.raises(NotCanonical) as err:
        canonical_factorize(diag)
    assert err.value.indices == (1, -1)


def test_slow_decay_partial_indices():
    # antidiagonal [[0, 1/z - c], [z - c, 0]] with c close to 1: the kernel
    # of the shifted operators decays like c^j, which defeats a fixed
    # section size; the escalation must still find (1, -1)
    c = 1.5 + np.cos(3 * np.pi / 4)
    sym = LaurentSymbol(1, 2, [
        ((1,), np.array([[0.0, 0.0], [1.0, 0.0]])),
        ((-1,), np.array([[0.0, 1.0], [0.0, 0.0]])),
        ((0,), np.array([[0.0, -c], [-c, 0.0]])),
    ])
    assert partial_indices(sym) == (1, -1)


def test_kernel_dims_of_shifts():
    assert toeplitz_kernel_dim(scalar([(1, 1.0)])) == 0
    assert toeplitz_kernel_dim(scalar([(-1, 1.0)])) == 1
    assert toeplitz_kernel_dim(scalar([(-3, 1.0)])) == 3
    with pytest.raises(InputError):
        toeplitz_kernel_dim(scalar([(-1, 1.0)]), start=0)


def test_random_products_factor_with_small_residual(rng):
    for _ in range(12):
        n = int(rng.integers(1, 4))
        deg = int(rng.integers(1, 3))
        g = random_canonical_1d(rng, n, deg)
        assert partial_indices(g) == tuple([0] * n)
        fact = canonical_factorize(g)
        assert fact.residual <= 1e-10
        assert verify_factorization(fact).residual <= 1e-8


def test_nonzero_winding_sums(rng):
    for _ in range(8):
        n = int(rng.integers(1, 4))
        g, total = random_nonzero_winding_1d(rng, n)
        assert sum(partial_indices(g)) == total == winding_of_det(g)


def test_factorization_unique_under_truncation_change(rng):
    g = random_canonical_1d(rng, 2, 2)
    a = canonical_factorize(g, truncation=32)
    b = canonical_factorize(g, truncation=64)
    zs = np.exp(2j * np.pi * np.arange(17) / 17)
    assert np.max(np.abs(a.minus_values(zs) - b.minus_values(zs))) <= 1e-8
    assert np.max(np.abs(a.plus_values(zs) - b.plus_values(zs))) <= 1e-8


def test_minus_factor_normalized_at_infinity(rng):
    g = random_canonical_1d(rng, 3, 1)
    fact = canonical_factorize(g)
    assert np.allclose(fact.minus_coeffs[0], np.eye(3))


def test_radial_scan_bounded_below_for_golden_slice():
    sl = golden_symbol().slice(1, (np.exp(0.6j),))
    scan = radial_scan(canonical_factorize(sl), radii=np.linspace(0.0, 1.0, 9))
    assert len(scan.sigma_min) == 9
    assert scan.worst >= 0.1
