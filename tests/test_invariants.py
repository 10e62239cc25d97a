from types import SimpleNamespace

import numpy as np
import pytest

import qtop.invariants
import qtop.wiener_hopf
from conftest import golden_symbol, promote_to_family, random_canonical_2d
from qtop.errors import InputError, SymmetryViolation
from qtop.extension import bott_generator, build_extended, build_extended_family
from qtop.invariants import (
    DEFAULT_GRID,
    _raw_w3,
    _resolves,
    calibrate_orientation,
    gapped_invariant_report,
    w3,
)
from qtop.operators import numerical_index
from qtop.symbols import LaurentSymbol

GRID = (32, 17, 32)


def test_orientation_calibration_is_plus_one():
    # the sign is a constant because the chart orientations already
    # integrate the degree-one generator to +1
    assert calibrate_orientation() == 1
    raw, _ = _raw_w3(bott_generator(), (16, 9, 16))
    assert abs(raw - 1.0) <= 1e-6


def test_w3_integrates_only_its_own_grids(monkeypatch):
    ext = build_extended(golden_symbol())
    calls = []
    real = qtop.invariants._raw_w3
    monkeypatch.setattr(qtop.invariants, "_raw_w3",
                        lambda ext, grid: calls.append(grid) or real(ext, grid))
    res = w3(ext)
    assert calls == [h[0] for h in res.history]


def test_w3_of_golden_is_one():
    res = w3(build_extended(golden_symbol()), grid=GRID)
    assert res.rounded == 1
    assert res.residual <= 1e-3
    assert res.sign == 1


def test_w3_of_identity_is_zero():
    res = w3(build_extended(LaurentSymbol.identity(2, 2), samples_per_circle=4),
             grid=(16, 9, 16))
    assert res.rounded == 0
    assert res.residual <= 1e-8


def test_w3_of_bott_generator():
    assert w3(bott_generator(), grid=GRID).rounded == 1
    assert w3(bott_generator(reversed_orientation=True), grid=GRID).rounded == -1


def _w3_with_product(rng, transform):
    """W3 of transform(golden + a seeded canonical product), golden's W3 = 1."""
    f = golden_symbol().block_diag(random_canonical_2d(rng))
    ext = build_extended(transform(f), samples_per_circle=8)
    return w3(ext, grid=(16, 9, 16))


def test_w3_of_adjoint_flips_sign(rng):
    res = w3(build_extended(golden_symbol().adjoint()), grid=GRID)
    assert res.rounded == -1
    res = _w3_with_product(rng, lambda f: f.adjoint())
    assert res.rounded == -1 and abs(res.raw_value + 1) <= 1e-6


def test_w3_adds_over_block_sums(rng):
    f = golden_symbol()
    res = w3(build_extended(f.block_diag(f)), grid=GRID)
    assert res.rounded == 2
    res = w3(build_extended(f.block_diag(f.adjoint())), grid=GRID)
    assert res.rounded == 0
    res = _w3_with_product(rng, lambda f: f)
    assert res.rounded == 1 and abs(res.raw_value - 1) <= 1e-6


def test_w3_invariant_under_unitary_conjugation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    res = w3(build_extended(golden_symbol().conjugate_by(q)), grid=GRID)
    assert res.rounded == 1
    assert res.residual <= 1e-2
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    res = _w3_with_product(rng, lambda f: f.conjugate_by(q))
    assert res.rounded == 1 and abs(res.raw_value - 1) <= 1e-6


def test_w3_refinement_keeps_value():
    res = w3(build_extended(golden_symbol()), grid=(16, 9, 16))
    assert res.rounded == 1
    assert [h[0] for h in res.history] == [(8, 5, 8), (16, 9, 16)]
    assert res.grid == (16, 9, 16)
    assert res.error_estimate <= 1e-6


def test_w3_chain_stops_at_first_agreeing_pair(monkeypatch):
    calls = []
    real = qtop.wiener_hopf._factorize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(qtop.wiener_hopf, "_factorize", counted)
    ext = build_extended(golden_symbol())
    assert len(calls) == 32  # the prebuilt slices only: 16 per variable
    res = w3(ext, grid=DEFAULT_GRID)
    assert [h[0] for h in res.history] == [(8, 5, 8), (16, 9, 16)]
    assert res.grid == (16, 9, 16)
    assert res.error_estimate <= 1e-6
    assert res.rounded == 1
    assert res.to_dict()["error_estimate"] == res.error_estimate
    assert len(calls) <= 32


def _golden_plus(m):
    return golden_symbol() + LaurentSymbol.identity(2, 2).scale(m)


def test_w3_chain_runs_to_the_requested_grid_when_no_two_agree():
    # near gap closing the angular rule limits W3: no two grids agree
    ext = build_extended(_golden_plus(0.8))
    res = w3(ext, grid=DEFAULT_GRID)
    assert [h[0] for h in res.history] == [
        (8, 5, 8), (16, 9, 16), (32, 17, 32), (64, 33, 64),
    ]
    assert res.grid == DEFAULT_GRID
    raw, _ = _raw_w3(ext, DEFAULT_GRID)
    assert res.raw_value == float((res.sign * raw).real)
    assert 7.8e-4 < res.error_estimate < 8.0e-4
    assert abs(res.raw_value - 1) <= 6.4e-7


def test_radial_rule_makes_polynomial_extensions_exact():
    # f^E is a polynomial in rho on each chart, so the Gauss rule
    # differentiates it exactly and only the angular rule is left
    res = w3(bott_generator(), grid=DEFAULT_GRID)
    assert [h[0] for h in res.history] == [(8, 5, 8), (16, 9, 16), (32, 17, 32)]
    assert abs(res.raw_value - 1) <= 1e-12
    res = w3(build_extended(_golden_plus(0.5)), grid=DEFAULT_GRID)
    assert abs(res.raw_value - 1) <= 1e-12


def test_resolves_needs_more_radii_than_the_rho_degree():
    # f^E has rho-degree max(0, -lo) + max(0, hi) in each disk variable
    one = np.eye(1)
    ext = SimpleNamespace(base=LaurentSymbol(2, 1, [((0, -4), one), ((1, 4), one)]))
    assert _resolves(ext, (16, 9, 20))
    assert not _resolves(ext, (16, 8, 20))
    ext = SimpleNamespace(base=LaurentSymbol(2, 1, [((0, 0), one), ((0, 3), one)]))
    assert _resolves(ext, (8, 4, 8))
    assert not _resolves(ext, (8, 3, 8))


def test_w3_chain_of_one_grid():
    res = w3(bott_generator(), grid=(8, 5, 8))
    assert len(res.history) == 1
    assert res.error_estimate is None
    assert res.to_dict()["error_estimate"] is None


def test_w3_chain_skips_grids_that_alias_the_symbol():
    # golden under z -> z^8 is constant on 8 angles and pure Nyquist on 16,
    # so those two grids would agree on 0; the chain starts at 32 angles.
    g = LaurentSymbol(2, 2, [((8 * e[0], e[1]), a)
                             for e, a in golden_symbol().coeffs.items()])
    ext = build_extended(g)
    res = w3(ext, grid=DEFAULT_GRID)
    assert [h[0] for h in res.history] == [(32, 17, 32), DEFAULT_GRID]
    assert res.rounded == 8
    raw, _ = _raw_w3(ext, DEFAULT_GRID)
    assert res.raw_value == float((res.sign * raw).real)


def test_w3_rejects_family_extension():
    fam = build_extended_family(promote_to_family(golden_symbol()),
                                t_samples=2, samples_per_circle=4)
    with pytest.raises(InputError):
        w3(fam, grid=(8, 5, 8))


def test_random_canonical_products_have_zero_w3(rng):
    for _ in range(2):
        g = random_canonical_2d(rng)
        res = w3(build_extended(g, samples_per_circle=8), grid=(16, 9, 16))
        assert res.rounded == 0


def test_index_is_multiplicative_under_a_canonical_product():
    # g is close enough to I that the path to it stays Fredholm, so f g and
    # g f keep golden's index; at the default sizes (10, 14, 18) the side-10
    # section of g f counts no kernel vector yet, hence the larger sizes
    g = random_canonical_2d(np.random.default_rng(0))
    for product in (golden_symbol() * g, g * golden_symbol()):
        assert numerical_index(product, sizes=(14, 18, 22)).value == 1
        assert w3(build_extended(product)).rounded == 1


def test_gapped_report_chiral_class(golden_H):
    rep = gapped_invariant_report(golden_H, "AIII", grid=GRID)
    assert rep.class_label == "AIII"
    assert rep.chiral
    assert rep.invariant == 1
    assert rep.invariant_label == "W3(h^E)"
    assert rep.orientation_sign == 1
    assert rep.extension_checks["seam"] <= 1e-8
    d = rep.to_dict()
    assert d["invariant"] == 1


def test_gapped_report_real_chiral_class(golden_H):
    rep = gapped_invariant_report(golden_H, "BDI", grid=GRID)
    assert rep.invariant == 1
    assert rep.invariant_label == "W3(h^E) (complex shadow)"
    assert rep.extension_checks["equivariance"] <= 1e-8


def test_gapped_report_nonchiral_class(golden_H):
    rep = gapped_invariant_report(golden_H, "A", grid=GRID)
    assert not rep.chiral
    assert rep.invariant is None
    assert rep.invariant_label == "not computed (non-Z target)"
    assert rep.extension_checks["hermiticity"] <= 1e-8


def test_gapped_report_rejects_wrong_class():
    # the golden symbol itself is not hermitian, so class A must fail
    with pytest.raises(SymmetryViolation):
        gapped_invariant_report(golden_symbol(), "A", grid=(16, 9, 16))


def test_gapped_report_rejects_wrong_arity(golden_H):
    with pytest.raises(InputError):
        gapped_invariant_report(promote_to_family(golden_H), "AIII")
