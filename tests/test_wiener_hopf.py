import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    golden_symbol,
    random_canonical_1d,
    random_canonical_2d,
    random_nonzero_winding_1d,
    sin_mass_family,
    small_term,
)
from test_symbols import _class_symbol
import qtop.wiener_hopf
from qtop.errors import (
    IllConditioned,
    InputError,
    NonConvergent,
    NotCanonical,
    NotFredholm,
    QtopError,
    SingularOnTorus,
    SizeOverflow,
    Unstable,
)
from qtop.operators import spectral_flow
from qtop.symbols import DENSE_CAP, LaurentSymbol, assemble_chiral
from qtop.wiener_hopf import (
    COND_CAP,
    EXACT_COND_ROWS,
    FIRST_TRUNCATION,
    MAX_TRUNCATION,
    VERIFY_GRID,
    _band_solve,
    _coeff_stack,
    _factor_coeffs,
    _factorize,
    _kernel_count,
    _open_stack,
    _section_condition,
    _slice_table,
    _solve_section,
    _solve_stack,
    _unwrap,
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
    band_dim = 1
    coeffs = {(0,): np.full((1, 1), np.nan, dtype=complex)}

    def exponent_range(self, var):
        return (0, 0)

    def coeff(self, exponents):
        return self.coeffs[(0,)]

    def eval_grid(self, axes):
        return np.full((len(axes[0]), 1, 1), np.nan, dtype=complex)


def test_certify_invertible_rejects_vanishing_det():
    with pytest.raises(SingularOnTorus):
        certify_invertible(scalar([(1, 1.0), (0, -1.0)]))  # z - 1
    with pytest.raises(SingularOnTorus):
        certify_invertible(_NaNSymbol())


def test_certify_invertible_finds_zeros_between_grid_points():
    """det f is a polynomial; a root on the circle between the 1024 grid
    points is caught by halving the arcs its chord test leaves open."""
    # the TD slice at angle 0 of a seeded class-AI band-3 symbol: a double
    # root of det f on the circle, min |det| 5.7e-6 on the grid
    with pytest.raises(SingularOnTorus, match="at or below its cut"):
        certify_invertible(_class_symbol("AI", 3, seed=1).slice(1, (1.0,)))
    # z - c, c the second point of a 4096-point grid: 1.5e-3 off the det grid
    c = np.exp(2j * np.pi / 4096)
    with pytest.raises(SingularOnTorus, match="at or below its cut"):
        certify_invertible(scalar([(0, -c), (1, 1.0)]))
    # -1.5 - w^2 - w^-2 has four simple roots on the circle
    with pytest.raises(SingularOnTorus, match="at or below its cut"):
        certify_invertible(scalar([(0, -1.5), (2, -1.0), (-2, -1.0)]))
    # a root 2e-3 off the circle is not a zero: the winding counts it
    assert certify_invertible(scalar([(0, -0.998), (1, 1.0)])) == 1
    assert certify_invertible(scalar([(0, -1.002), (1, 1.0)])) == 0
    # det degree 68: its 68 roots on the circle fall between grid points too
    with pytest.raises(SingularOnTorus, match="at or below its cut"):
        certify_invertible(scalar([(0, -1.5), (34, -1.0), (-34, -1.0)]))


def test_det_cut_scales_with_the_symbol():
    """The cut is DET_TOL min(s, 1)^n with s the largest row sum of coefficient row
    norms: a scaled symbol keeps its verdict, and the band-16 identity (s = 1,
    where coeff_norm()^n would be 43) is invertible."""
    sl = golden_symbol().slice(0, (np.exp(0.4j),))
    for scale in (1.0, 1e-5, 1e5):
        assert certify_invertible(sl.scale(scale)) == 0
        with pytest.raises(SingularOnTorus):
            certify_invertible(scalar([(0, -scale), (1, scale)]))  # scale (z - 1)
    assert certify_invertible(LaurentSymbol.identity(1, 16)) == 0
    # well conditioned, s > 1: min |det f| is 0.4^16 = 4.3e-7 and 0.15^8 =
    # 2.6e-7 at z = -1, a grid point, below DET_TOL s^n but above DET_TOL
    for n, c in ((16, 0.6), (8, 0.85)):
        one = LaurentSymbol(1, n, [((0,), np.eye(n)), ((1,), c * np.eye(n))])
        assert certify_invertible(one) == 0


def test_winding_is_exact_at_any_degree():
    """n lo plus the winding of det(z^-lo f) over resolved arcs: a
    monomial's det winding does not alias on the 1024-point grid."""
    for k in (511, 512, 600, -1500):
        assert winding_of_det(scalar([(k, 1.0)])) == k
    shifted = random_canonical_1d(np.random.default_rng(3), 2, 2).shift((700,))
    assert winding_of_det(shifted) == 1400


def test_det_of_high_degree_is_decided_without_roots(monkeypatch):
    """Up to degree 3000 det f is certified, and its winding read, by arc
    halving alone: no polynomial roots and no companion eigenvalues.  Past
    D + 1 = 1024 it is checked on its own coefficient points."""
    monkeypatch.setattr(np, "roots", _refuse_call)
    monkeypatch.setattr(np.linalg, "eigvals", _refuse_call)
    assert winding_of_det(scalar([(0, 1.0), (1000, 0.5)])) == 0
    assert winding_of_det(scalar([(0, 1.0), (2000, 0.5)])) == 0
    assert winding_of_det(scalar([(-1, 1.0), (1999, 0.5)])) == -1
    assert winding_of_det(scalar([(-1, 1.0), (2998, 0.5)])) == -1  # z^-1 (1 + 0.5 z^2999)
    with pytest.raises(SingularOnTorus, match="at or below its cut"):
        certify_invertible(scalar([(0, 1.0), (2048, -1.0)]))  # zero at every other point
    # 1200 simple roots on the circle, between the points of every grid
    with pytest.raises(SingularOnTorus):
        certify_invertible(scalar([(0, -1.5), (600, -1.0), (-600, -1.0)]))


def test_det_grid_past_the_cap_is_refused_before_sampling(monkeypatch):
    """Degrees 9,000,000 and 600,000 need 2^24 and 2^20 det points, past
    DET_GRID / 4, which leaves no room for two halvings: InputError before
    any FFT.  Degree 100,000 fits and is certified."""
    ffts = _count_calls(monkeypatch, np.fft, "ifft")
    for far in (9_000_000, 600_000):
        with pytest.raises(InputError, match="no room to halve twice"):
            certify_invertible(scalar([(0, 1.0), (far, 0.5)]))
    assert ffts == []
    assert certify_invertible(scalar([(0, 1.0), (100_000, 0.5)])) == 0


def test_det_small_against_its_coefficients_is_resolved():
    """(1 + z)^60 / 2^60 + 1e-7: |det f| is near 1e-7 on an arc of about
    three radians, yet every root is 0.02 off the circle.  The chord test
    resolves it with winding 14 (the roots in the disk)."""
    poly = [(k, math.comb(60, k) / 2.0**60 + (1e-7 if k == 0 else 0.0)) for k in range(61)]
    assert winding_of_det(scalar(poly)) == 14


def test_det_check_past_its_caps_is_unstable(monkeypatch):
    """Arcs still open when the next halving would pass DET_GRID leave the
    check inconclusive: Unstable (exit 3), not an obstruction."""
    monkeypatch.setattr(qtop.wiener_hopf, "DET_GRID", 1 << 14)
    poly = [(k, math.comb(60, k) / 2.0**60 + (1e-7 if k == 0 else 0.0)) for k in range(61)]
    with pytest.raises(Unstable, match="unresolved on"):
        certify_invertible(scalar(poly))


def test_det_zero_past_the_halving_caps_is_found_by_newton():
    """-1.5 - z^60000 - z^-60000 has 120,000 simple zeros on the circle; its
    open arcs outgrow DET_GRID before a chord passes within the cut, and a
    Newton step from the smallest open sample reaches one: SingularOnTorus."""
    with pytest.raises(SingularOnTorus, match="at or below its cut"):
        certify_invertible(scalar([(0, -1.5), (60_000, -1.0), (-60_000, -1.0)]))


def _refuse_call(*args, **kwargs):
    raise AssertionError("the det check computed roots")


def test_large_section_condition_estimate():
    sl = golden_symbol().slice(0, (np.exp(1.1j),))
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


def test_partial_indices_refuse_what_the_inverse_grid_cannot_resolve(monkeypatch):
    ffts = _count_calls(monkeypatch, np.fft, "fft")
    with pytest.raises(InputError):  # 4096 * 50^2 entries
        partial_indices(LaurentSymbol(1, 50, [((1,), np.eye(50)), ((0,), 0.1 * np.eye(50))]))
    with pytest.raises(InputError):  # Hankel coefficients past 4096 / 4
        partial_indices(scalar([(0, 0.5), (-600, 1.0)]))
    assert ffts == []
    with pytest.raises(Unstable, match="have not decayed"):  # det roots 0.995, 1/0.995
        partial_indices(scalar([(0, 1 + 0.995**2), (1, -0.995), (-1, -0.995)]))
    # z - c with c the grid's own sample of z at the second point: exactly
    # singular there, 1.5e-3 away from the 1024-point det grid; the det
    # check finds it by halving arcs before any section is solved
    c = np.fft.fft([0.0, 1.0], 4096)[1]
    with pytest.raises(SingularOnTorus, match="at or below its cut"):
        canonical_factorize(scalar([(0, -c), (1, 1.0)]))
    # the inverse grid guards itself: with the det check passed over, the
    # same zero still makes f^-1 non-finite on the 4096-point grid
    monkeypatch.setattr(qtop.wiener_hopf, "certify_invertible", lambda symbol: 1)
    with pytest.raises(SingularOnTorus, match="not finite"):
        partial_indices(scalar([(0, -c), (1, 1.0)]))


def test_kernel_dims_of_shifts():
    assert toeplitz_kernel_dim(scalar([(1, 1.0)])) == 0
    assert toeplitz_kernel_dim(scalar([(-1, 1.0)])) == 1
    assert toeplitz_kernel_dim(scalar([(-3, 1.0)])) == 3
    with pytest.raises(InputError):
        toeplitz_kernel_dim(scalar([(-1, 1.0)]), start=0)


def test_kernel_count_decomposes_a_repeated_block_once(monkeypatch):
    rng = np.random.default_rng(5)
    s = rng.standard_normal((7, 4)) @ rng.standard_normal((4, 5))  # rank 4 of 5 columns
    t = np.linalg.qr(rng.standard_normal((4, 3)))[0] @ np.diag([2.0, 1.0, 1e-3])
    dense = np.zeros((18, 13))
    dense[:7, :5], dense[7:14, 5:10], dense[14:, 10:] = s, s, t
    count, margin = _kernel_count(dense)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert _kernel_count(s, s, t) == (count, pytest.approx(margin, rel=1e-12))
    assert count == 2
    assert calls == [(7, 5), (4, 3)]


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


def test_partial_index_identities(rng):
    """Criterion-4 symbols: z^k f has every index raised by k, the adjoint
    the negated indices in reverse order, a direct sum the union of both
    multisets, and d(0) = sum_i max(-kappa_i, 0) is the tall-section count."""
    symbols = []
    for trial in range(12):
        n = int(rng.integers(1, 4))
        if trial % 2:
            symbols.append(random_nonzero_winding_1d(rng, n)[0])
        else:
            symbols.append(random_canonical_1d(rng, n, int(rng.integers(1, 3))))
    for f, g in zip(symbols, symbols[1:] + symbols[:1]):
        kappa = partial_indices(f)
        k = int(rng.choice([-6, -3, -1, 1, 3, 6]))
        assert partial_indices(f.shift((k,))) == tuple(x + k for x in kappa)
        assert partial_indices(f.adjoint()) == tuple(-x for x in reversed(kappa))
        both = sorted(kappa + partial_indices(g), reverse=True)
        assert partial_indices(f.block_diag(g)) == tuple(both)
        assert toeplitz_kernel_dim(f) == sum(max(-x, 0) for x in kappa)


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
    assert scan.radii == tuple(np.linspace(0.0, 1.0, 9))
    assert len(scan.sigma_min) == 9
    assert scan.worst >= 0.1


def _bound_holds(symbol):
    try:
        return _solve_section(symbol, FIRST_TRUNCATION)[2] is not None
    except Unstable:
        return False


def _table_indices(symbol):
    """Partial indices the slice table certifies for ``symbol``, the slice of
    its lift to two variables at any angle: all zero, or those of the
    NotFredholm it raises."""
    lift = LaurentSymbol(2, symbol.band_dim, [((k, 0), a) for (k,), a in symbol.coeffs.items()])
    try:
        _slice_table(lift).certify([(0, 0.0, None, None)], None)
    except NotFredholm as exc:
        return exc.indices
    return (0,) * symbol.band_dim


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
            assert _table_indices(g) == (0,) * n
    # f_- diag(z^k) f_+ with f_-^{+-1} analytic outside the disk and f_+^{+-1}
    # inside is a Wiener-Hopf factorization: its partial indices are the k
    for ks in ((1, -1), (1, 0), (0, -1), (0, 0, 1)):
        n = len(ks)
        eye = ((0,), np.eye(n))
        minus = LaurentSymbol(1, n, [eye, ((-1,), small_term(rng, n, 0.3))])
        plus = LaurentSymbol(1, n, [eye, ((1,), small_term(rng, n, 0.3))])
        twisted = minus * _diag_monomial(ks) * plus
        assert not _bound_holds(twisted)
        assert _table_indices(twisted) == tuple(sorted(ks, reverse=True))


def _certificate(symbol, h_stack):
    coeffs, lo = _coeff_stack(symbol)[None], symbol.exponent_range(0)[0]
    factors = _factor_coeffs(coeffs, lo, h_stack[None])
    return _wiener_certificate(coeffs, lo, h_stack[None], factors)[0]


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
        assert _certificate(golden_symbol().slice(0, (1.0,)),
                            h_any[:1]) is None  # h shorter than the 1/z reach


def test_wiener_certificate_bound_is_scale_free():
    """The bound on cond(T_f) does not change when f is scaled, also at
    1e-160, where the Gram products of h (about 1e320) would overflow and
    those of f underflow if the blocks were not scaled first."""
    sl = golden_symbol().slice(0, (np.exp(0.4j),))
    ref = _solve_section(sl, FIRST_TRUNCATION)[2]
    assert ref is not None
    for scale in (1e-160, 1e150):
        bound = _solve_section(sl.scale(scale), FIRST_TRUNCATION)[2]
        assert bound is not None and abs(bound - ref) <= 1e-13 * ref


def test_wiener_certificate_holds_its_block_stack_few_times():
    """The certificate scales its concatenated block stack in place and
    hands the Gram stack itself to eigvalsh: on 51 sin-mass slices at
    FIRST_TRUNCATION its peak stays within 4 times that block stack."""
    family = sin_mass_family(assemble_chiral(golden_symbol()))
    rng = np.random.default_rng(0)
    slices = [family.slice(0, np.exp(2j * np.pi * rng.random(2))) for _ in range(51)]
    coeffs, lo, m = np.stack([_coeff_stack(sl) for sl in slices]), -1, FIRST_TRUNCATION
    assert slices[0].exponent_range(0)[0] == lo
    h = _band_solve(coeffs, lo, m)
    c, b, defect = factors = _factor_coeffs(coeffs, lo, h)
    # defect, g, rest_plus, rest_minus, h and f, in n x n blocks per slice
    blocks = (defect.shape[1] + (m + 1) + (b.shape[1] + m) + (c.shape[1] + m)
              + (m + 1) + coeffs.shape[1])
    stack_bytes = len(slices) * blocks * coeffs[0, 0].nbytes
    tracemalloc.start()
    try:
        bounds = _wiener_certificate(coeffs, lo, h, factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(bound is not None for bound in bounds)
    assert peak <= 4 * stack_bytes, peak / stack_bytes


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
    # partial indices prove the slice canonical without any tall-section
    # kernel scan, and the loop doubles the truncation until the relative
    # defect passes
    calls = _count_calls(monkeypatch, qtop.wiener_hopf, "toeplitz_kernel_dim")
    fact = canonical_factorize(scalar([(0, 1 + 0.99**2), (1, -0.99), (-1, -0.99)]))
    assert calls == []
    assert fact.partial_indices == (0,)
    assert fact.residual <= 1e-10
    assert verify_factorization(fact).residual <= 1e-8
    assert np.isfinite(fact.condition) and fact.condition < COND_CAP
    for value in (fact.truncation, fact.residual, fact.condition):
        assert isinstance(value, (int, float)) and np.isfinite(value)


def test_doubling_that_raises_the_defect_is_nonconvergent(monkeypatch):
    # the TD slice at angle 0 of a seeded class-AI band-3 symbol: its det has
    # a double root on the circle, so the det check refuses it before any
    # section solve.  Taken as canonical, its relative defect goes 0.109,
    # 3.64, 0.025, 15.8 at m = 32 ... 256, so the doubling loop stops at
    # m = 64 instead of solving up to the cap
    sl = _class_symbol("AI", 3, seed=1).slice(1, (1.0,))
    real = qtop.wiener_hopf._solve_section
    calls = []

    def counted(symbol, m):
        calls.append(m)
        if len(calls) > 2:
            raise AssertionError(f"section solve number {len(calls)}, at m = {m}")
        return real(symbol, m)

    monkeypatch.setattr(qtop.wiener_hopf, "_solve_section", counted)
    with pytest.raises(SingularOnTorus):
        canonical_factorize(sl)
    assert calls == []
    with pytest.raises(NonConvergent, match="doubling does not converge"):
        _factorize(sl, (FIRST_TRUNCATION, None, (0, 0, 0)), None)
    assert calls == [FIRST_TRUNCATION, 2 * FIRST_TRUNCATION]


def _single_opening(symbol, m):
    try:
        return _unwrap(_open_stack([symbol], m)[0])
    except QtopError as exc:
        return exc


def _assert_same_opening(stacked, single):
    if isinstance(single, QtopError):
        assert (type(stacked), str(stacked)) == (type(single), str(single))
        return
    assert stacked[0] == single[0] and stacked[2] == single[2]
    assert (stacked[1] is None) == (single[1] is None)
    if single[1] is not None:
        assert (stacked[1][2] is None) == (single[1][2] is None)
        np.testing.assert_allclose(stacked[1][0], single[1][0], rtol=0, atol=1e-14)


def test_stacked_openings_equal_single_openings():
    rng = np.random.default_rng(2718)
    golden = golden_symbol()
    symbols = (sin_mass_family(assemble_chiral(golden)), golden.block_diag(golden),
               random_canonical_2d(rng) * golden)
    for symbol in symbols:
        for direction in (0, 1):
            slices = [symbol.slice(direction, np.exp(2j * np.pi * rng.random(symbol.num_vars - 1)))
                      for _ in range(6)]
            for stacked, sl in zip(_open_stack(slices, FIRST_TRUNCATION), slices):
                _assert_same_opening(stacked, _single_opening(sl, FIRST_TRUNCATION))


def test_stack_with_cancelled_edge_singular_section_and_singular_det():
    """diag(1/z, z) + 0.1 (w - 1) has an exactly singular section at w = 1
    (its first column is zero), and z (1 - w) - 2 w loses its z-coefficient
    at w = 1 (and is singular at w = -1); 1.5 - z - 0.5 w is singular on the circle at w = 1.  Each
    stacked opening equals the single one, and the table opens a slice
    whose edge cancelled in its own stack."""
    eye = np.eye(2)
    twisted = LaurentSymbol(2, 2, [((-1, 0), np.diag([1.0, 0.0])), ((1, 0), np.diag([0.0, 1.0])),
                                   ((0, 1), 0.1 * eye), ((0, 0), -0.1 * eye)])
    angles = 2 * np.pi * np.arange(4) / 4
    slices = [twisted.slice(0, (np.exp(1j * a),)) for a in angles]
    with pytest.raises(Unstable, match="33-block section is singular"):
        _solve_section(slices[0], FIRST_TRUNCATION)
    for stacked, sl in zip(_open_stack(slices, FIRST_TRUNCATION), slices):
        _assert_same_opening(stacked, _single_opening(sl, FIRST_TRUNCATION))

    cancels = LaurentSymbol(2, 1, [((1, 0), [[1.0]]), ((1, 1), [[-1.0]]), ((0, 1), [[-2.0]])])
    assert cancels.slice(0, (1.0,)).exponent_range(0) == (0, 0)
    table = _slice_table(cancels)
    opened = []
    real = qtop.wiener_hopf._open_stack
    keys = [(0, a, None, None) for a in angles]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qtop.wiener_hopf, "_open_stack",
                   lambda slices, m: opened.append(len(slices)) or real(slices, m))
        table.open(keys)
    assert sorted(opened) == [1, 3]
    for key in keys:
        entry = table._entries[table._key(*key)]
        _assert_same_opening(entry[1], _single_opening(entry[0], FIRST_TRUNCATION))

    # a slice singular on the circle in the middle of a stack keeps its
    # error in its own place
    singular = LaurentSymbol(2, 1, [((0, 0), [[1.5]]), ((1, 0), [[-1.0]]), ((0, 1), [[-0.5]])])
    slices = [singular.slice(0, (np.exp(1j * a),)) for a in (np.pi / 2, 0.0, np.pi)]
    first, middle, last = _open_stack(slices, FIRST_TRUNCATION)
    assert isinstance(middle, SingularOnTorus)
    assert not isinstance(first, QtopError) and not isinstance(last, QtopError)


def test_stack_keeps_a_partial_index_error_with_its_slice():
    """h = z - 0.5 - 0.499 w: at w = 1 the slice z - 0.999 passes the det cut,
    but f^-1 decays like 0.999^k, so its partial indices are Unstable; the
    other slices of the stack still open, each with partial index 1."""
    h = LaurentSymbol(2, 1, [((1, 0), [[1.0]]), ((0, 0), [[-0.5]]), ((0, 1), [[-0.499]])])
    slices = [h.slice(0, (np.exp(2j * np.pi * j / 8),)) for j in range(8)]
    first, *rest = _open_stack(slices, FIRST_TRUNCATION)
    assert isinstance(first, Unstable)
    assert [opened[2] for opened in rest] == [(1,)] * 7


def test_condition_above_the_cap_is_ill_conditioned():
    """diag(1000, 1e-10 (1 + 0.1 z)) passes the det cut of 1e-8, as
    |det f| >= 9e-8, but its condition is near 1e13; a well-conditioned
    slice of the same stack still factors."""
    bad = LaurentSymbol(1, 2, [((0,), np.diag([1000.0, 1e-10])), ((1,), np.diag([0.0, 1e-11]))])
    good = LaurentSymbol(1, 2, [((0,), np.eye(2)), ((1,), 0.1 * np.eye(2))])
    opened_bad, opened_good = _open_stack([bad, good], FIRST_TRUNCATION)
    with pytest.raises(IllConditioned, match="exceeds"):
        _factorize(bad, opened_bad, None)
    assert _factorize(good, opened_good, None).residual <= 1e-10


def _dense_h(symbol, m):
    n = symbol.band_dim
    section = symbol.section((m + 1,), (m + 1,))
    return np.linalg.solve(section, np.eye((m + 1) * n, n)).reshape(m + 1, n, n)


def test_band_solve_equals_the_dense_solve():
    rng = np.random.default_rng(4242)
    for n in (1, 2, 4):
        for lo, hi in ((-1, 1), (-3, 2), (0, 2), (-2, 0)):
            slices = []
            for _ in range(3):
                terms = {(k,): small_term(rng, n, 0.5 / (hi - lo)) for k in range(lo, hi + 1)}
                terms[(0,)] = terms[(0,)] + 2.0 * np.eye(n)
                slices.append(LaurentSymbol(1, n, list(terms.items())))
            coeffs = np.stack([_coeff_stack(sl) for sl in slices])
            for m in (0, 1, 5, 32):
                for h, sl in zip(_band_solve(coeffs, lo, m), slices):
                    dense = _dense_h(sl, m)
                    assert np.abs(h - dense).max() <= 1e-12 * np.abs(dense).max(), (n, lo, hi, m)


def _count_sections(monkeypatch):
    """The one-variable symbols whose dense Toeplitz section is built."""
    built = []
    real = LaurentSymbol.section

    def counted(self, rows, cols):
        if self.num_vars == 1:
            built.append(self)
        return real(self, rows, cols)

    monkeypatch.setattr(LaurentSymbol, "section", counted)
    return built


def test_singular_pivot_falls_back_to_the_dense_section(monkeypatch):
    """f = (I + C/z)(I + B z), B and C triangular with spectral radius 1/2,
    is canonical, but its constant term I + CB = [[1.25, 1.25], [-0.3125,
    -0.3125]], the first pivot of the band LU, is exactly singular.  That
    slice alone is solved densely, keeps the dense h bit for bit and is
    certified; its stack mate is not solved again."""
    b = np.array([[0.5, 2.5], [0.0, 0.5]])
    c = np.array([[0.5, 0.0], [-0.625, 0.5]])
    pivotless = LaurentSymbol(1, 2, [((0,), np.eye(2) + c @ b), ((-1,), c), ((1,), b)])
    regular = LaurentSymbol(1, 2, [((0,), 4.0 * np.eye(2)), ((-1,), c), ((1,), b)])
    h_band = _band_solve(np.stack([_coeff_stack(regular), _coeff_stack(pivotless)]),
                         -1, FIRST_TRUNCATION)
    assert np.isfinite(h_band[0]).all() and not np.isfinite(h_band[1]).all()
    built = _count_sections(monkeypatch)
    first, second = _solve_stack([regular, pivotless], FIRST_TRUNCATION)
    assert built == [pivotless]
    assert first[2] is not None and second[2] is not None
    assert np.array_equal(second[0], _dense_h(pivotless, FIRST_TRUNCATION))


def test_slice_whose_bound_fails_is_solved_again_densely(monkeypatch):
    rng = np.random.default_rng(77)
    eye = ((0,), np.eye(2))
    minus, plus = ([eye] + [((s * k,), small_term(rng, 2, 0.2)) for k in (1, 2)]
                   for s in (-1, 1))
    canonical = LaurentSymbol(1, 2, minus) * LaurentSymbol(1, 2, plus)
    twisted = LaurentSymbol(1, 2, minus[:2]) * _diag_monomial((1, -1)) * LaurentSymbol(1, 2, plus[:2])
    assert canonical.exponent_range(0) == twisted.exponent_range(0) == (-2, 2)
    built = _count_sections(monkeypatch)
    solved = _solve_stack([canonical, twisted, canonical], FIRST_TRUNCATION)
    assert built == [twisted]
    assert [s[2] is None for s in solved] == [False, True, False]
    assert np.array_equal(solved[1][0], _dense_h(twisted, FIRST_TRUNCATION))


def test_verify_grid_is_evaluated_in_chunks_within_grid_cap(monkeypatch):
    fact = canonical_factorize(golden_symbol().slice(0, (np.exp(1.1j),)))
    whole = verify_factorization(fact)
    sizes = []
    real = LaurentSymbol.eval_grid

    def recorded(self, axes):
        out = real(self, axes)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(LaurentSymbol, "eval_grid", recorded)
    monkeypatch.setattr(qtop.wiener_hopf, "GRID_CAP", 100)
    assert verify_factorization(fact) == whole
    assert max(sizes) <= 100 and sum(sizes) == VERIFY_GRID * 4 and len(sizes) == 21


def test_slice_sections_stay_within_the_dense_cap(monkeypatch):
    """At MAX_TRUNCATION a band-2 section has 8194 rows: diag(z, 1/z) skips
    the dense re-solve and is decided by its partial indices, and the
    condition of the canonical [[z, 1], [0, 1/z]], whose band result is not
    certified, is refused before its section is built."""
    real = LaurentSymbol.section

    def capped(self, rows, cols):
        if math.prod(rows) * self.band_dim > DENSE_CAP:
            raise AssertionError(f"section of {math.prod(rows) * self.band_dim} rows")
        return real(self, rows, cols)

    monkeypatch.setattr(LaurentSymbol, "section", capped)
    diag = _diag_monomial((1, -1))
    with pytest.raises(NotCanonical) as err:
        canonical_factorize(diag, truncation=MAX_TRUNCATION)
    assert err.value.indices == (1, -1)
    upper = LaurentSymbol(1, 2, [((1,), np.diag([1.0, 0.0])), ((0,), [[0.0, 1.0], [0.0, 0.0]]),
                                 ((-1,), np.diag([0.0, 1.0]))])
    with pytest.raises(SizeOverflow):
        canonical_factorize(upper, truncation=MAX_TRUNCATION)


def test_flow_slices_open_in_few_stacks(monkeypatch):
    """The 256 slices of a 32-sample flow (2 directions, 4 angles) open in
    at most 5 stacks, sized by what an opening allocates."""
    family = sin_mass_family(assemble_chiral(golden_symbol()))
    calls = _count_calls(monkeypatch, qtop.wiener_hopf, "_open_stack")
    keys = [(direction, 2.0 * np.pi * j / 4, 2, 2.0 * np.pi * k / 32)
            for k in range(32) for direction in (0, 1) for j in range(4)]
    _slice_table(family).certify(keys, None)
    assert sum(len(args[0]) for args in calls) == 256
    assert len(calls) <= 5
