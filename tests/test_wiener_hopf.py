import warnings

import numpy as np
import pytest

from conftest import (
    golden_symbol,
    random_canonical_1d,
    random_nonzero_winding_1d,
    sin_mass_family,
    small_term,
)
import qtop.wiener_hopf
from qtop.errors import InputError, NotCanonical, SingularOnTorus, Unstable
from qtop.operators import spectral_flow
from qtop.symbols import LaurentSymbol, assemble_chiral
from qtop.wiener_hopf import (
    COND_CAP,
    EXACT_COND_ROWS,
    FIRST_TRUNCATION,
    _factor_coeffs,
    _section_condition,
    _slice_indices,
    _solve_section,
    _wiener_certificate,
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
    h_big = _solve_section(sl, m)[0]
    h_small = _solve_section(sl, 32)[0]
    np.testing.assert_allclose(h_big[:33], h_small, rtol=0, atol=1e-12)
    cond_big = _section_condition(sl, m)
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


def test_plus_polynomial_inverts_the_solved_series(rng):
    zs = np.exp(2j * np.pi * np.arange(64) / 64)
    golden = golden_symbol()
    slices = [golden.slice(var, (np.exp(2j * np.pi * j / 16),))
              for var in (0, 1) for j in range(16)]
    slices += [random_canonical_1d(rng, n, deg) for n in (2, 3) for deg in (1, 2)]
    for sl in slices:
        fact = canonical_factorize(sl)
        h_vals = sum(h * zs[:, None, None] ** k for k, h in enumerate(fact.plus_inv_coeffs))
        h_inv = np.linalg.inv(h_vals)
        assert np.max(np.abs(fact.plus_values(zs) - h_inv)) <= 1e-10
        fvals = fact.symbol.eval_grid([zs])
        recon = fact.minus_values(zs) @ fact.plus_values(zs)
        assert np.max(np.abs(recon - fvals)) <= 1e-10


def test_radial_scan_bounded_below_for_golden_slice():
    sl = golden_symbol().slice(1, (np.exp(0.6j),))
    scan = radial_scan(canonical_factorize(sl), radii=np.linspace(0.0, 1.0, 9))
    assert len(scan.sigma_min) == 9
    assert scan.worst >= 0.1


def _bound_holds(symbol):
    try:
        return _solve_section(symbol, FIRST_TRUNCATION)[2] is not None
    except np.linalg.LinAlgError:
        return False


def _diag_monomial(ks):
    n = len(ks)
    terms = {}
    for i, k in enumerate(ks):
        terms.setdefault((k,), np.zeros((n, n)))[i, i] = 1.0
    return LaurentSymbol(1, n, list(terms.items()))


def test_wiener_certificate_on_canonical_and_twisted_products():
    rng = np.random.default_rng(909)
    for n in (2, 3):
        for _ in range(4):
            g = random_canonical_1d(rng, n, 2, cap=0.6)
            assert _bound_holds(g)
            assert _slice_indices(g) == (0,) * n
    # f_- diag(z^k) f_+ with f_-^{+-1} analytic outside the disk and f_+^{+-1}
    # inside is a Wiener-Hopf factorization: its partial indices are the k
    for ks in ((1, -1), (1, 0), (0, -1), (0, 0, 1)):
        n = len(ks)
        eye = ((0,), np.eye(n))
        minus = LaurentSymbol(1, n, [eye, ((-1,), small_term(rng, n, 0.3))])
        plus = LaurentSymbol(1, n, [eye, ((1,), small_term(rng, n, 0.3))])
        twisted = minus * _diag_monomial(ks) * plus
        assert not _bound_holds(twisted)
        assert _slice_indices(twisted) == tuple(sorted(ks, reverse=True))


def _certificate(symbol, h_stack):
    return _wiener_certificate(symbol, h_stack, _factor_coeffs(symbol, h_stack))


def test_wiener_certificate_rejects_quietly():
    obstruction = _diag_monomial((1, -1))
    shift = LaurentSymbol(1, 2, [((1,), np.eye(2))])
    rng = np.random.default_rng(5)
    h_any = rng.standard_normal((FIRST_TRUNCATION + 1, 2, 2)).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sym in (obstruction, shift):
            assert not _bound_holds(sym)
            for h_stack in (h_any, 1e200 * h_any, np.full_like(h_any, np.nan)):
                assert _certificate(sym, h_stack) is None
        assert _certificate(golden_symbol().slice(0, (1.0,)).symbol,
                            h_any[:1]) is None  # h shorter than the 1/z reach


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_certified_paths_run_no_kernel_scan(monkeypatch):
    calls = _count_calls(monkeypatch, qtop.wiener_hopf, "toeplitz_kernel_dim")
    factor_calls = _count_calls(monkeypatch, qtop.wiener_hopf, "_factor_coeffs")
    golden = golden_symbol()
    slices = [golden.slice(var, (np.exp(2j * np.pi * j / 16),))
              for var in (0, 1) for j in range(16)]
    dense = [_count_calls(monkeypatch, np.linalg, name) for name in ("cond", "inv")]
    for sl in slices:
        canonical_factorize(sl)
    # the certified path judges each slice by one solve: no condition SVD,
    # no per-point inverse, one coefficient-level factor recovery
    assert dense == [[], []]
    assert len(factor_calls) == len(slices)
    spectral_flow(sin_mass_family(assemble_chiral(golden)), t_samples=4, side=4)
    assert calls == []


def test_kernel_scan_fallback_factorizes_slow_decay(monkeypatch):
    # (1 - 0.99/z)(1 - 0.99 z): the bound fails on the first solve, the
    # kernel scan proves the slice canonical, and the loop doubles the
    # truncation until the relative defect passes
    calls = _count_calls(monkeypatch, qtop.wiener_hopf, "toeplitz_kernel_dim")
    fact = canonical_factorize(scalar([(0, 1 + 0.99**2), (1, -0.99), (-1, -0.99)]))
    assert calls
    assert fact.partial_indices == (0,)
    assert fact.residual <= 1e-10
    assert verify_factorization(fact).residual <= 1e-8
    assert np.isfinite(fact.condition) and fact.condition < COND_CAP
    for value in (fact.truncation, fact.residual, fact.condition):
        assert isinstance(value, (int, float)) and np.isfinite(value)
