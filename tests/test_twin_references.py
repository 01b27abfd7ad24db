"""Each direct twin against the formulation it replaced.

The references below are the earlier, slower ways of computing the same
sums: Horner's rule (np.polyval), the Lagrange weights by an n x n
complex division, the kernel sum by its product of denominators, and
the dilog head by an angle-by-term cosine matrix.  Agreement is measured
relative to the sum of the magnitudes of the terms, the scale rounding
acts on; a sum that cancels (an all-distinct kernel sum is 0) has no
relative error of its own.
"""

import numpy as np
import pytest

from islkit import selfcheck, spectral
from islkit.selfcheck import random_quads
from islkit.spectral import roots_of_unity

ODD_N = range(3, 200, 2)


def polyval_reference(seq, z):
    return np.polyval(np.asarray(seq)[::-1], z)


def lagrange_reference(at_roots, j):
    """(values, scales) at -eps_j from the weights eps_k / (eps_j + eps_k)."""
    n = len(at_roots)
    eps = roots_of_unity(n)
    terms = eps / np.add.outer(eps[np.asarray(j) % n], eps) * at_roots
    return (2.0 / n) * np.sum(terms, axis=-1), (2.0 / n) * np.sum(np.abs(terms), axis=-1)


def kernel_reference(quads, n):
    """(values, scales): eps_j^2 over the product of the four denominators."""
    quads = np.asarray(quads) % n
    eps = roots_of_unity(n)
    denom = np.ones((len(quads), n), dtype=np.complex128)
    for c in range(4):
        denom *= eps[None, :] + eps[quads[:, c]][:, None]
    terms = eps[None, :] ** 2 / denom
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def dilog_head_reference(thetas, terms):
    k = np.arange(1, terms + 1)
    return np.cos(np.outer(thetas, k)) @ (1.0 / (k * k))


def test_gf_eval_matches_polyval():
    rng = np.random.default_rng(20)
    for n in ODD_N:
        seq = rng.normal(size=n)
        z = -roots_of_unity(n)
        err = np.abs(spectral.gf_eval(seq, z) - polyval_reference(seq, z))
        assert err.max() <= 1e-12 * np.abs(seq).sum(), n


def test_lagrange_weights_match_the_complex_division():
    rng = np.random.default_rng(21)
    for n in ODD_N:
        at_roots = spectral.gf_at_roots(rng.normal(size=n))
        j = np.arange(n)
        want, scale = lagrange_reference(at_roots, j)
        err = np.abs(spectral.interpolate_negated_root(at_roots, j) - want)
        assert np.all(err <= 1e-12 * scale), n


def test_kernel_table_matches_the_denominator_product():
    rng = np.random.default_rng(22)
    for n in range(5, 102, 2):
        quads = random_quads(rng, n, 500)
        want, scale = kernel_reference(quads, n)
        err = np.abs(spectral.kernel_sums_direct(quads, n) - want)
        assert np.all(err <= 1e-12 * scale), n


@pytest.mark.parametrize("terms", [2000, 20_000])
def test_blocked_dilog_head_matches_the_cosine_matrix(terms):
    thetas = np.linspace(-2 * np.pi, 2 * np.pi, 103)[1:-1]  # the validate grid
    scale = np.sum(1.0 / np.arange(1, terms + 1) ** 2)
    err = np.abs(selfcheck._dilog_head(thetas, terms) - dilog_head_reference(thetas, terms))
    assert err.max() <= 1e-12 * scale
