import numpy as np
import pytest

from conftest import (
    gap_closing_family,
    golden_closed_form,
    golden_symbol,
    promote_to_family,
)
from qtop.errors import InputError, NotFredholm, OutOfDomain
from qtop.extension import (
    ChartPoint,
    ClosedFormExtension,
    ExtendedSymbol,
    _chart_coordinates,
    bott_generator,
    build_extended,
    build_extended_family,
    check_equivariance,
    check_hermitian,
)
from qtop.symbols import LaurentSymbol, assemble_chiral


def test_chart_point_validation():
    with pytest.raises(OutOfDomain):
        ChartPoint("TD", 0.0, 1.2, 0.0)
    with pytest.raises(OutOfDomain):
        ChartPoint("XX", 0.0, 0.5, 0.0)
    z, w = (x.item() for x in _chart_coordinates("DT", [0.3], [0.5], [1.0]))
    assert abs(z - 0.5 * np.exp(0.3j)) < 1e-15
    assert abs(w - np.exp(1.0j)) < 1e-15


def test_golden_extension_matches_closed_form():
    ext = build_extended(golden_symbol())
    ref = golden_closed_form()
    thetas = 2 * np.pi * np.arange(8) / 8
    rhos = np.linspace(0.0, 1.0, 5)
    for chart in ("TD", "DT"):
        got = ext.chart_grid(chart, thetas, rhos, thetas)
        want = ref.chart_grid(chart, thetas, rhos, thetas)
        assert np.max(np.abs(got - want)) <= 1e-6


def test_golden_extension_point_values():
    ext = build_extended(golden_symbol())
    # disk center of the DT chart: z = 0, w = e^{i/2}
    val = ext.value(ChartPoint("DT", 0.0, 0.0, 0.5))
    want = np.array([
        [0.0, -np.exp(-0.5j)],
        [2.0 * np.exp(0.5j), 0.0],
    ])
    assert np.max(np.abs(val - want)) <= 1e-8
    # disk center of the TD chart: diag(2 z, 1/z)
    for th in (0.0, 0.9, 2.2):
        val = ext.value(ChartPoint("TD", th, 0.0, 1.3))
        want = np.diag([2.0 * np.exp(1j * th), np.exp(-1j * th)])
        assert np.max(np.abs(val - want)) <= 1e-8


def test_point_value_is_the_one_point_chart_grid():
    """``value`` reads the chart convention through ``chart_grid``: at a TD,
    a DT and a family point it equals that grid entry bit for bit."""
    golden = golden_symbol()
    family = build_extended_family(promote_to_family(golden), t_samples=4, samples_per_circle=8)
    thetas, rhos, phis = [0.4, 1.9], [0.0, 0.35, 1.0], [0.6, 2.5]
    for ext, t in ((build_extended(golden, samples_per_circle=8), None),
                   (golden_closed_form(), None), (family, np.pi / 2), (family, 0.7)):
        for chart in ("TD", "DT"):
            grid = ext.chart_grid(chart, thetas, rhos, phis, *([] if t is None else [t]))
            for i, j, k in ((1, 1, 0), (0, 2, 1)):
                point = ChartPoint(chart, thetas[i], rhos[j], phis[k], t=t)
                assert np.array_equal(ext.value(point), grid[i, j, k]), (ext, chart, t)


def test_seam_agreement_for_golden():
    golden = golden_symbol()
    ext = build_extended(golden)
    assert ext.seam_residuals[None] <= 1e-8
    # reference: both chart formulas against f on a 48 x 48 grid of the
    # gluing torus, off the prebuilt angles too (max |f| = 1 for golden)
    angles = 2 * np.pi * np.arange(48) / 48
    fvals = golden.eval_grid([np.exp(1j * angles)] * 2)
    for chart in ("TD", "DT"):
        vals = ext.chart_grid(chart, angles, np.array([1.0]), angles)[:, 0]
        assert np.max(np.linalg.norm(vals - fvals, axis=(-2, -1))) <= 1e-8


def test_bott_generator_values():
    g = bott_generator()
    z, w = np.exp(0.4j), 0.3 * np.exp(1.1j)
    val = g.fn(np.asarray(z), np.asarray(w))
    want = np.array([[z, -np.conj(w)], [w, np.conj(z)]])
    assert np.allclose(val, want)
    rev = bott_generator(reversed_orientation=True)
    val = rev.fn(np.asarray(z), np.asarray(w))
    want = np.array([[z, -w], [np.conj(w), np.conj(z)]])
    assert np.allclose(val, want)


def test_hermitian_symbol_extends_hermitian(golden_H):
    ext = build_extended(golden_H, samples_per_circle=8)
    assert check_hermitian(ext, grid=(8, 5, 8)) <= 1e-8


def test_real_coefficients_give_ai_equivariance(golden_H):
    ext = build_extended(golden_H, samples_per_circle=8)
    assert check_equivariance(ext, "AI", grid=(8, 5, 8)) <= 1e-8
    with pytest.raises(InputError):
        check_equivariance(ext, "A", grid=(8, 5, 8))


def test_noncanonical_slice_aborts_with_direction():
    sym = LaurentSymbol(2, 2, [
        ((1, 0), np.diag([1.0, 0.0])),
        ((-1, 0), np.diag([0.0, 1.0])),
    ])
    with pytest.raises(NotFredholm) as err:
        build_extended(sym, samples_per_circle=4)
    assert err.value.direction == 0
    assert err.value.indices == (1, -1)


def test_family_detects_gap_closing_within_one_spacing():
    fam = gap_closing_family()
    t_samples = 16
    with pytest.raises(NotFredholm) as err:
        build_extended_family(fam, t_samples=t_samples, samples_per_circle=4)
    t_hit = err.value.where[-1]
    # det of the scalar block vanishes once 1.5 + cos t enters the unit
    # circle, first at t = 2 pi / 3
    assert abs(t_hit - 2 * np.pi / 3) <= 2 * np.pi / t_samples


def test_family_evaluation_matches_static_extension():
    fam = promote_to_family(golden_symbol())
    ext3 = build_extended_family(fam, t_samples=4, samples_per_circle=8)
    ext2 = build_extended(golden_symbol(), samples_per_circle=8)
    pt3 = ChartPoint("DT", 1.9, 0.35, 0.6, t=np.pi / 2)
    pt2 = ChartPoint("DT", 1.9, 0.35, 0.6)
    assert np.max(np.abs(ext3.value(pt3) - ext2.value(pt2))) <= 1e-10
    with pytest.raises(OutOfDomain):
        ext3.factor_at("TD", 0.0, t=None)
    with pytest.raises(OutOfDomain):
        ext2.factor_at("TD", 0.0, t=1.0)


def test_constructor_rejects_wrong_arity():
    from qtop.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        ExtendedSymbol(golden_symbol(), family_var=2)
    with pytest.raises(DimensionMismatch):
        build_extended_family(golden_symbol())


def test_sample_counts_below_one_are_input_errors():
    with pytest.raises(InputError):
        ExtendedSymbol(golden_symbol(), samples_per_circle=0)
    with pytest.raises(InputError):
        build_extended(golden_symbol(), samples_per_circle=-3)
    with pytest.raises(InputError):
        build_extended_family(promote_to_family(golden_symbol()), t_samples=0)
