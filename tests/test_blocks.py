"""The block path of the exact algebra: families on one exponent, one
function per column of a coefficient array."""

import math
from collections import Counter

import numpy as np
import pytest

from bargmann_lab import gaussalg
from bargmann_lab.bargmann import QuadGrid, gram_HPhi
from bargmann_lab.ellipse import (
    Psi_family,
    Psi_family_ladder,
    Psi_n,
    Psi_n_ladder,
    derived_constants,
    ladder_diffops,
    psi_family_ladder,
    psi_n_ladder,
)
from bargmann_lab.gaussalg import (
    DiffOp,
    DomainError,
    HermiteBlock,
    HermiteGauss,
    _band,
    apply_diffop,
    norm_line,
)
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.ncho import NchoParams, combined_gram
from bargmann_lab.suites import ELLIPSE_SETS

EPS = np.finfo(float).eps


def _band_reference(a, lo, hi):
    """The per-term banded map: ``lo L + hi R`` on a coefficient list."""
    rt = [math.sqrt(2 * k) for k in range(1, len(a) + 1)]
    up = [0j] + [hi * (r * c) for r, c in zip(rt, a)]
    down = [lo * (r * c) for r, c in zip(rt, a[1:])] + [0j, 0j]
    return [u + d for u, d in zip(up, down)]


def _random_block(rng, K, m):
    return rng.normal(size=(K, m)) + 1j * rng.normal(size=(K, m))


@pytest.mark.parametrize("K", [1, 2, 7, 41])
def test_band_is_the_per_term_map_to_round_off(K):
    # two rounded products and one sum per entry: a few ulps of the terms
    rng = np.random.default_rng(K)
    A = _random_block(rng, K, 5)
    lo, hi = complex(0.3, -1.2), complex(-0.7, 0.4)
    got = _band(A, lo, hi)
    assert got.shape == (K + 1, 5)
    for j in range(5):
        want = np.array(_band_reference(A[:, j].tolist(), lo, hi))
        rt = np.sqrt(2.0 * np.arange(1, K + 2))
        scale = abs(hi) * rt * np.abs(np.r_[0, A[:, j]])
        scale[: K - 1] += abs(lo) * rt[: K - 1] * np.abs(A[1:, j])
        assert np.all(np.abs(got[:, j] - want) <= 4 * EPS * scale)


def test_block_columns_are_the_single_functions():
    # every column of a block image is, bit for bit, the image of its member
    # alone: members of different lengths, an operator with a linear exponent
    rng = np.random.default_rng(7)
    fs = [
        HermiteGauss(_random_block(rng, K, 1)[:, 0].tolist(), -0.4 + 0.3j, 1.1, 0.2 - 0.5j)
        for K in (1, 4, 9, 3)
    ]
    op = DiffOp({(0, 2): 1.0, (2, 0): 0.5 - 1j, (1, 1): 2j, (0, 0): 0.25}, 0.7)
    image = apply_diffop(op, HermiteBlock.stack(fs))
    for j, f in enumerate(fs):
        assert image.column(j).coeffs == apply_diffop(op, f).coeffs
    norms = norm_line(image)
    assert [float(x) for x in norms] == [norm_line(apply_diffop(op, f)) for f in fs]


def test_block_needs_one_exponent():
    with pytest.raises(DomainError):
        HermiteBlock.stack([HermiteGauss((1.0,), -0.5, 1.0), HermiteGauss((1.0,), -0.6, 1.0)])


@pytest.mark.parametrize("alpha,beta", ELLIPSE_SETS)
def test_families_are_their_members_bit_for_bit(alpha, beta):
    p = derived_constants(alpha, beta)
    n = 24
    for k, (f, g, u) in enumerate(
        zip(Psi_family(p, n), Psi_family_ladder(p, n), psi_family_ladder(p, n))
    ):
        assert f.coeffs == Psi_n(p, k).coeffs
        assert g.coeffs == Psi_n_ladder(p, k).coeffs
        assert u.coeffs == psi_n_ladder(p, k).coeffs


def test_residual_of_a_nan_column_is_inf_in_its_own_entry_only():
    p = derived_constants(2.0, 1.0)
    _, _, H = ladder_diffops(p)
    fs = Psi_family(p, 6)
    mus = [p.eigen_gap * (2 * k + 1) for k in range(6)]
    block = HermiteBlock.stack(fs)
    block.coeffs[:, 2] = math.nan
    got = gaussalg.relative_residual(H, block, mus)
    want = [gaussalg.relative_residual(H, f, mu) for f, mu in zip(fs, mus)]
    assert got[2] == math.inf
    assert [g for k, g in enumerate(got) if k != 2] == [w for k, w in enumerate(want) if k != 2]


@pytest.mark.parametrize("n", [3, 24])
def test_combined_gram_takes_one_overlap_matrix_per_exponent_pair(monkeypatch, n):
    calls = Counter()
    overlaps = gaussalg._overlaps

    def counting(g, g1, s1, s2, J, K):
        calls[(g, g1, s1, s2)] += 1
        return overlaps(g, g1, s1, s2, J, K)

    monkeypatch.setattr(gaussalg, "_overlaps", counting)
    G, dev = combined_gram(NchoParams(2.0, 1.0), n)
    assert len(G) == 2 * n and dev <= 1e-14
    assert 1 <= sum(calls.values()) <= 3
    assert set(calls.values()) == {1}



_EMPTY_FAMILY_CALLS = {
    "phi_block": (lambda hs: hs.phi_block(0), "N = 0"),
    "gram_exact": (lambda hs: hs.gram_matrix(0), "N = 0"),
    "gram_quadrature": (lambda hs: hs.gram_matrix(0, method="quadrature"), "N = 0"),
    "eigen_residuals": (lambda hs: hs.eigen_residuals(0), "N = 0"),
    "combined_gram": (lambda hs: combined_gram(NchoParams(2.0, 1.0), 0), "N = 0"),
    "gram_HPhi": (lambda hs: gram_HPhi(hs.params, []), "fs is empty"),
    "stack": (lambda hs: HermiteBlock.stack([]), "fs is empty"),
    "QuadGrid": (lambda hs: QuadGrid(np.array([]), -np.zeros(1), np.array([]), np.ones(1), 1.0, 0.0, 0.0),
                 "one node or more"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call,name", _EMPTY_FAMILY_CALLS.values(), ids=_EMPTY_FAMILY_CALLS)
def test_an_empty_family_is_a_domain_error_naming_it(call, name):
    with pytest.raises(DomainError, match=name):
        call(HermiteSystem.from_bch(3.0, 1 + 2j, 0.5))
