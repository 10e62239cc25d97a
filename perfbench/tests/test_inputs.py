"""Seeded benchmark inputs.  Run: python3 -m pytest perfbench/tests"""

import os
import sys

import numpy as np

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from inputs import write_inputs  # noqa: E402
from qtop.operators import certify_fredholm  # noqa: E402
from qtop.symbols import load_symbol  # noqa: E402


def read_all(paths):
    out = {}
    for stem, path in paths.items():
        with open(path, "rb") as fh:
            out[stem] = fh.read()
    return out


def test_same_seed_gives_byte_identical_files(tmp_path):
    first = read_all(write_inputs(7, str(tmp_path / "a")))
    second = read_all(write_inputs(7, str(tmp_path / "b")))
    assert first == second
    other = read_all(write_inputs(8, str(tmp_path / "c")))
    assert other["product"] != first["product"]
    assert other["obstruction"] == first["obstruction"]


def test_seeded_product_is_certified_canonical_in_both_directions(tmp_path):
    for seed in range(4):
        paths = write_inputs(seed, str(tmp_path / str(seed)))
        product = load_symbol(paths["product"])
        assert product.band_dim == 2
        certify_fredholm(product)  # raises NotFredholm for a non-canonical slice


def test_symbol_files_have_the_expected_shapes(tmp_path):
    paths = write_inputs(0, str(tmp_path))
    shapes = {stem: (load_symbol(p).num_vars, load_symbol(p).band_dim)
              for stem, p in paths.items()}
    assert shapes == {"golden": (2, 2), "golden2": (2, 4), "product": (2, 2),
                      "obstruction": (2, 2), "H": (2, 4), "sinmass": (3, 4)}
    big_h = load_symbol(paths["H"])
    assert big_h.distance(big_h.adjoint()) < 1e-12
    pi = np.diag([1.0, 1.0, -1.0, -1.0])
    assert max(np.abs(pi @ a + a @ pi).max() for a in big_h.coeffs.values()) < 1e-12
