"""Seeded symbol files for the benchmark workloads.

Every file qtop reads in a benchmark run is written here from the seed
alone, with numpy and the JSON format of README "File formats"; nothing
is imported from qtop.  A symbol is a dict ``{exponents: matrix}``.

The seed enters in two ways that leave every reference answer unchanged:

* a constant unitary conjugation ``U f U*`` of the golden-based symbols
  (W3, the truncation index, the chiral corner count and the spectral
  flow are all invariant under it; for chiral ``H`` the unitary is
  ``diag(V, V)``, which commutes with the grading);
* the coefficients of the canonical product
  ``(I + a z^-1 + b w^-1)(I + c z + d w)``, each of operator norm 0.18,
  so both factors stay invertible on their half of the Riemann sphere and
  the quarter-plane index is 0 by construction.
"""

from __future__ import annotations

import json
import os

import numpy as np

PRODUCT_NORM = 0.18
SIN_MASS_MU = 0.3


def _golden():
    """[[z, -1/w], [w, 1/z]]: index 1."""

    def unit(row, col, value):
        a = np.zeros((2, 2), dtype=complex)
        a[row, col] = value
        return a

    return {(1, 0): unit(0, 0, 1.0), (0, -1): unit(0, 1, -1.0),
            (0, 1): unit(1, 0, 1.0), (-1, 0): unit(1, 1, 1.0)}


def _block_diag(f, g):
    n, m = _dim(f), _dim(g)
    out = {}
    for exp in set(f) | set(g):
        a = np.zeros((n + m, n + m), dtype=complex)
        if exp in f:
            a[:n, :n] = f[exp]
        if exp in g:
            a[n:, n:] = g[exp]
        out[exp] = a
    return out


def _dim(f):
    return next(iter(f.values())).shape[0]


def _product(f, g):
    out = {}
    for ef, a in f.items():
        for eg, b in g.items():
            exp = tuple(x + y for x, y in zip(ef, eg))
            out[exp] = out.get(exp, 0) + a @ b
    return out


def _conjugate(f, u):
    return {exp: u @ a @ u.conj().T for exp, a in f.items()}


def _adjoint(f):
    """f*(z) = sum a_j^H z^-j on the torus."""
    return {tuple(-e for e in exp): a.conj().T for exp, a in f.items()}


def _chiral(h):
    """H = [[0, h*], [h, 0]] with the grading +1 block first."""
    n = _dim(h)
    hstar = _adjoint(h)
    out = {}
    for exp in set(h) | set(hstar):
        a = np.zeros((2 * n, 2 * n), dtype=complex)
        if exp in hstar:
            a[:n, n:] = hstar[exp]
        if exp in h:
            a[n:, :n] = h[exp]
        out[exp] = a
    return out


def _sin_mass(big_h, mu):
    """H + mu sin(t) Pi as a three-variable symbol, t the last variable."""
    n = _dim(big_h)
    pi = np.diag(np.r_[np.ones(n // 2), -np.ones(n // 2)]).astype(complex)
    up = -0.5j * mu * pi
    out = {exp + (0,): a for exp, a in big_h.items()}
    out[(0, 0, 1)] = up
    out[(0, 0, -1)] = up.conj().T
    return out


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _small(rng, n, norm):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (norm / np.linalg.norm(a, 2))


def _canonical_product(rng, n=2, norm=PRODUCT_NORM):
    """(I + a z^-1 + b w^-1)(I + c z + d w), every term of norm ``norm``."""
    eye = np.eye(n, dtype=complex)
    minus = {(0, 0): eye, (-1, 0): _small(rng, n, norm), (0, -1): _small(rng, n, norm)}
    plus = {(0, 0): eye, (1, 0): _small(rng, n, norm), (0, 1): _small(rng, n, norm)}
    return _product(minus, plus)


def _obstruction():
    """diag(z, 1/z): slices in z have partial indices (1, -1)."""
    return {(1, 0): np.diag([1.0, 0.0]).astype(complex),
            (-1, 0): np.diag([0.0, 1.0]).astype(complex)}


def symbols(seed):
    """Every benchmark symbol for ``seed``, by file stem."""
    rng = np.random.default_rng(seed)
    golden = _golden()
    h = _conjugate(golden, _unitary(rng, 2))
    big_h = _chiral(h)
    return {
        "golden": _conjugate(golden, _unitary(rng, 2)),
        "golden2": _conjugate(_block_diag(golden, golden), _unitary(rng, 4)),
        "product": _canonical_product(rng),
        "obstruction": _obstruction(),
        "H": big_h,
        "sinmass": _sin_mass(big_h, SIN_MASS_MU),
    }


def to_document(f):
    """The JSON document of README "File formats"; terms in exponent order."""
    n = _dim(f)
    num_vars = len(next(iter(f)))
    terms = []
    for exp in sorted(f):
        a = np.asarray(f[exp], dtype=complex)
        terms.append({
            "exponents": list(exp),
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in a],
        })
    return {"num_vars": num_vars, "band_dim": n, "terms": terms}


def write_inputs(seed, directory):
    """Write ``<stem>.json`` for every symbol; returns {stem: path}."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for stem, f in symbols(seed).items():
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w") as fh:
            json.dump(to_document(f), fh, indent=1)
            fh.write("\n")
        paths[stem] = path
    return paths
