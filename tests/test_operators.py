import numpy as np
import pytest

from conftest import (
    gap_closing_family,
    golden_symbol,
    promote_to_family,
    sin_mass_family,
)
from qtop.errors import (
    ChiralViolation,
    DimensionMismatch,
    InputError,
    NotFredholm,
    NotHermitian,
    SizeOverflow,
)
from qtop.operators import (
    HalfPlaneRect,
    Quarter,
    Segment,
    assemble,
    certify_fredholm,
    corner_spectrum,
    dump_operator,
    half_plane_gap,
    kernel_dim,
    numerical_index,
    spectral_flow,
)
from qtop.symbols import LaurentSymbol, _reducing_subspaces, assemble_chiral


def scalar_1d(terms):
    return LaurentSymbol(1, 1, [((k,), np.array([[c]])) for k, c in terms])


def test_segment_assembly_puts_shift_below_diagonal():
    op = assemble(scalar_1d([(1, 1.0)]), Segment(5))
    want = np.zeros((5, 5))
    want[np.arange(1, 5), np.arange(4)] = 1.0
    assert np.array_equal(op.matrix, want)


def test_quarter_assembly_layout(golden):
    op = assemble(golden, Quarter(3))
    assert op.matrix.shape == (18, 18)
    # hop z: site (x, y) -> (x+1, y); site order is lexicographic in (x, y)
    sites = [tuple(s) for s in op.col_sites]
    a = op.matrix.reshape(9, 2, 9, 2)
    i, j = sites.index((1, 2)), sites.index((0, 2))
    assert np.allclose(a[i, :, j, :], np.array([[1.0, 0.0], [0.0, 0.0]]))
    # Dirichlet: no wraparound from the last column
    i, j = sites.index((0, 0)), sites.index((2, 0))
    assert np.allclose(a[i, :, j, :], 0.0)


def test_assembly_validation(golden):
    with pytest.raises(DimensionMismatch):
        assemble(golden, Segment(4))
    with pytest.raises(DimensionMismatch):
        assemble(scalar_1d([(1, 1.0)]), Quarter(4))
    with pytest.raises(InputError):
        assemble(golden, HalfPlaneRect(direction=2, parallel=4, perp=4))
    with pytest.raises(InputError):
        assemble(golden, "quarter")
    with pytest.raises(SizeOverflow):
        assemble(golden, Quarter(200))


def test_kernel_dim_of_finite_shift():
    assert kernel_dim(assemble(scalar_1d([(1, 1.0)]), Segment(8))) == 1
    assert kernel_dim(assemble(scalar_1d([(0, 1.0)]), Segment(8))) == 0
    assert kernel_dim(np.ones((1, 3))) == 2
    assert kernel_dim(np.zeros((2, 3))) == 3


def test_numerical_index_golden(golden):
    rep = numerical_index(golden)
    assert rep.value == 1
    assert rep.kernel_counts == (1, 1, 1)
    assert rep.cokernel_counts == (0, 0, 0)
    assert rep.to_dict()["index"] == 1


def test_kernel_dim_of_blocks_cuts_at_the_largest_singular_value(rng):
    a = rng.standard_normal((6, 4))
    b = 1e-9 * rng.standard_normal((5, 3))
    whole = np.zeros((11, 7))
    whole[:6, :4], whole[6:, 4:] = a, b
    assert kernel_dim(a, b) == kernel_dim(whole) == 3
    assert kernel_dim(b) == 0


def _direct_sum(parts):
    out = parts[0]
    for part in parts[1:]:
        out = out.block_diag(part)
    return out


@pytest.mark.parametrize("k, l", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2)])
def test_numerical_index_of_hidden_direct_sums(golden, k, l):
    """golden^k + adjoint^l, conjugated by a seeded unitary, is counted block
    by block; index and per-size counts are the sums over the summands."""
    rng = np.random.default_rng(7 + 3 * k + l)
    n = 2 * (k + l)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    summands = [golden] * k + [golden.adjoint()] * l
    sym = _direct_sum(summands).conjugate_by(q)
    assert [w.shape[1] for w in _reducing_subspaces(sym)] == [2] * (k + l)
    sizes = (4, 6)
    rep = numerical_index(sym, sizes=sizes, certify=False)
    assert rep.value == k - l
    reps = [numerical_index(f, sizes=sizes, certify=False) for f in summands]
    assert rep.kernel_counts == tuple(map(sum, zip(*(r.kernel_counts for r in reps))))
    assert rep.cokernel_counts == tuple(map(sum, zip(*(r.cokernel_counts for r in reps))))


def _recorded_sections(monkeypatch):
    rows = []
    real = LaurentSymbol.section

    def section(self, *args):
        out = real(self, *args)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(LaurentSymbol, "section", section)
    return rows


def test_split_index_keeps_the_full_row_cap(golden, monkeypatch):
    rows = _recorded_sections(monkeypatch)
    with pytest.raises(SizeOverflow):  # 41^2 * 4 rows; each block would be 41^2 * 2
        numerical_index(golden.block_diag(golden), sizes=(40,), certify=False)
    assert rows == []


def test_split_index_sections_are_blocks(golden, monkeypatch):
    rows = _recorded_sections(monkeypatch)
    rep = numerical_index(golden.block_diag(golden), sizes=(18,), certify=False)
    assert rep.value == 2
    assert max(rows) == 722  # 19^2 * 2, half the undivided section


def test_numerical_index_related_symbols(golden):
    assert numerical_index(golden.adjoint()).value == -1
    assert numerical_index(LaurentSymbol.identity(2, 2)).value == 0
    assert numerical_index(golden.block_diag(golden), sizes=(8, 10)).value == 2


def test_segment_index_is_minus_winding():
    assert numerical_index(scalar_1d([(1, 1.0), (0, -0.5)])).value == -1
    assert numerical_index(scalar_1d([(-1, 1.0), (0, -0.5)])).value == 1
    assert numerical_index(scalar_1d([(1, 0.3), (0, 1.0)])).value == 0


def test_certify_fredholm_reports_direction():
    sym = LaurentSymbol(2, 2, [
        ((1, 0), np.diag([1.0, 0.0])),
        ((-1, 0), np.diag([0.0, 1.0])),
    ])
    with pytest.raises(NotFredholm) as err:
        certify_fredholm(sym)
    assert err.value.direction == 0
    assert err.value.indices == (1, -1)
    certify_fredholm(golden_symbol())  # does not raise


def test_half_plane_gap_golden(golden):
    for direction in (0, 1):
        rep = half_plane_gap(golden, direction, parallel=16, perp=8)
        assert rep.gap >= 0.5
        assert not rep.gapless_trend


def test_half_plane_gap_flags_gapless():
    sym = LaurentSymbol(2, 1, [
        ((1, 0), np.array([[1.0]])),
        ((-1, 0), np.array([[1.0]])),
    ])
    rep = half_plane_gap(sym, 0, parallel=4, perp=8)
    assert rep.gapless_trend
    assert rep.gap < 0.2


def test_corner_spectrum_golden(golden_H):
    res = corner_spectrum(golden_H, side=14)
    assert len(res.corner_modes) == 1
    assert res.signed_count == 1
    assert res.corner_modes[0].chirality >= 0.99
    assert abs(res.corner_modes[0].value) <= 1e-10
    assert res.spectral_gap >= 0.1
    assert res.separation_ok
    # the three artificial corners carry the compensating partners
    assert len(res.zero_modes) == 4
    assert sum(1 if m.chirality >= 0 else -1 for m in res.zero_modes) == 0


def test_corner_spectrum_adjoint(golden):
    res = corner_spectrum(assemble_chiral(golden.adjoint()), side=14)
    assert res.signed_count == -1


def test_corner_spectrum_trivial_symbol():
    res = corner_spectrum(assemble_chiral(LaurentSymbol.identity(2, 2)), side=8)
    assert res.signed_count == 0
    assert len(res.zero_modes) == 0
    assert res.spectral_gap >= 0.9


def test_corner_spectrum_of_zero_symbol():
    res = corner_spectrum(LaurentSymbol(2, 2, []), side=3)
    assert len(res.zero_modes) == len(res.corner_modes) == 18
    assert res.signed_count == 0
    assert res.spectral_gap == 0.0
    assert not res.separation_ok


def test_corner_spectrum_validation(golden, golden_H):
    with pytest.raises(NotHermitian):
        corner_spectrum(golden, side=8)
    shifted = golden_H + LaurentSymbol(2, 4, [((0, 0), 0.01 * np.eye(4))])
    with pytest.raises(ChiralViolation):
        corner_spectrum(shifted, side=8)
    res = corner_spectrum(shifted, side=8, chiral=False)
    assert res.signed_count is None


def test_chiral_spectra_pair_up(golden_H):
    res = corner_spectrum(golden_H, side=10)
    vals = res.eigenvalues
    assert np.max(np.abs(vals + vals[::-1])) <= 1e-9


def _random_chiral(rng, band):
    """Chiral H from a seeded random h with nearest-neighbour hops."""
    terms = [((i, j), rng.normal(size=(band, band)) + 1j * rng.normal(size=(band, band)))
             for i in (-1, 0, 1) for j in (-1, 0, 1)]
    return assemble_chiral(LaurentSymbol(2, band, terms))


@pytest.mark.parametrize("case", ["golden", "adjoint", "band2", "band3"])
def test_chiral_corner_spectrum_matches_dense_eigh(golden, case):
    rng = np.random.default_rng(11)
    H = {
        "golden": lambda: assemble_chiral(golden),
        "adjoint": lambda: assemble_chiral(golden.adjoint()),
        "band2": lambda: _random_chiral(rng, 2),
        "band3": lambda: _random_chiral(rng, 3),
    }[case]()
    for side in (1, 5, 10):
        res = corner_spectrum(H, side=side)
        ref = np.linalg.eigvalsh(assemble(H, Quarter(side)).matrix)
        assert res.eigenvalues.shape == ref.shape
        assert np.max(np.abs(res.eigenvalues - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert len(res.zero_modes) == np.count_nonzero(np.abs(ref) <= res.zero_tol)
        assert all(m.chirality in (1.0, -1.0) for m in res.zero_modes)
        assert all(m.value == 0.0 for m in res.zero_modes)
        chi = res.eigen_chirality
        assert np.array_equal(np.abs(chi) == 1, np.abs(res.eigenvalues) <= res.zero_tol)
        assert np.all((chi == 0) | (np.abs(chi) == 1))
        corner_rows = min(side, 4) ** 2 * H.band_dim
        assert abs(res.eigen_participation.sum() - corner_rows) <= 1e-9
    if case in ("golden", "adjoint"):
        assert len(res.zero_modes) == 4
        assert res.signed_count == (1 if case == "golden" else -1)


def test_chiral_corner_spectrum_keeps_the_full_row_cap(golden_H):
    with pytest.raises(SizeOverflow):
        corner_spectrum(golden_H, side=39)


def test_chiral_corner_spectrum_runs_no_dense_eigh(golden_H, monkeypatch):
    eigh = np.linalg.eigh

    def small_eigh_only(a, *args, **kwargs):
        if a.shape[0] > 8:
            raise AssertionError(f"eigh of a {a.shape[0]}-row matrix")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", small_eigh_only)
    res = corner_spectrum(golden_H, side=14)
    assert res.signed_count == 1
    assert len(res.zero_modes) == 4
    assert len(res.corner_modes) == 1
    assert res.corner_modes[0].chirality == 1.0
    assert res.spectral_gap >= 0.1


def test_spectral_flow_constant_family(golden_H):
    res = spectral_flow(promote_to_family(golden_H), t_samples=8, side=6)
    assert res.flow == 0
    assert res.crossings == ()
    assert len(res.tracks) == 1


def test_spectral_flow_sin_mass(golden_H):
    res = spectral_flow(sin_mass_family(golden_H), t_samples=16, side=6)
    assert res.flow == 0
    assert len(res.crossings) == 2
    signs = sorted(s for _, s in res.crossings)
    assert signs == [-1, 1]
    ts = sorted(t for t, _ in res.crossings)
    assert abs(ts[0] - 0.0) <= 1e-9
    assert abs(ts[1] - np.pi) <= 2 * np.pi / 16 + 1e-9


def test_spectral_flow_stable_under_refinement(golden_H):
    a = spectral_flow(sin_mass_family(golden_H), t_samples=16, side=6)
    b = spectral_flow(sin_mass_family(golden_H), t_samples=32, side=6)
    assert a.flow == b.flow == 0
    assert len(a.crossings) == len(b.crossings) == 2


def test_spectral_flow_validation(golden, golden_H):
    with pytest.raises(NotHermitian):
        spectral_flow(promote_to_family(golden), t_samples=4, side=4)
    with pytest.raises(NotFredholm):
        spectral_flow(gap_closing_family(), t_samples=16, side=4)
    with pytest.raises(DimensionMismatch):
        spectral_flow(golden_H)


def test_dump_operator_roundtrip(tmp_path, golden):
    op = assemble(golden, Quarter(3))
    path = tmp_path / "op.bin"
    dump_operator(op, path)
    raw = path.read_bytes()
    header = np.frombuffer(raw[:24], dtype=np.int64)
    assert tuple(header) == (18, 18, 2)
    data = np.frombuffer(raw[24:], dtype=np.float64).reshape(18, 18, 2)
    assert np.array_equal(data[..., 0] + 1j * data[..., 1], op.matrix)
