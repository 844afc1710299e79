"""Localization eigenvalues for radial symbols: series, quadrature, matrices."""

import math

import numpy as np
import pytest
from scipy.special import gammainc

from bargmann_lab import suites, toeplitz
from bargmann_lab.bargmann import TRUNCATION_TOL, TruncationError, polar_grid
from bargmann_lab.gaussalg import DomainError
from bargmann_lab.toeplitz import (
    RadialSymbol,
    default_toeplitz_grid,
    disk_eigenvalue,
    radial_eigenvalue,
    radius_from_groundstate,
    spectrum_rows,
    toeplitz_block_quad,
    toeplitz_matrix_quad,
)


def test_constant_symbol_has_unit_spectrum():
    sym = RadialSymbol(lambda u: 1.0, math.inf)
    for n in range(8):
        assert radial_eigenvalue(sym, n) == pytest.approx(1.0, abs=1e-10)


def test_disk_ground_state_value():
    assert disk_eigenvalue(1.0, 0) == pytest.approx(1 - math.exp(-1), rel=1e-14)


def test_exponential_profile_halves():
    # c(u) = e^{-u/2} gives the geometric sequence 2^{-(n+1)}
    sym = RadialSymbol.gaussian(0.5)
    for n in range(9):
        assert radial_eigenvalue(sym, n) == pytest.approx(2.0 ** -(n + 1), rel=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rate", [0.1, 0.5, 2.0])
def test_small_gaussian_eigenvalues_keep_relative_accuracy(rate):
    # c(u) = e^{-rate u} gives (1 + 2 rate)^{-(n+1)}, down to 5^{-64}
    sym = RadialSymbol.gaussian(rate)
    for n in range(64):
        want = (1.0 + 2.0 * rate) ** -(n + 1)
        assert abs(radial_eigenvalue(sym, n) - want) <= 1e-10 * want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("R", [0.01, 0.5, 3.0, 10.3827, 34.6515, 100.0])
def test_small_disk_eigenvalues_keep_relative_accuracy(R):
    # the disk eigenvalue is the regularized lower incomplete gamma P(n+1, R)
    sym = RadialSymbol.indicator(R)
    rows = spectrum_rows(R, 64)  # all n from one quadrature
    for n in range(64):
        want = gammainc(n + 1, R)
        assert abs(radial_eigenvalue(sym, n) - want) <= 1e-10 * want
        assert abs(rows[n]["lambda_quadrature"] - want) <= 1e-10 * want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [0, 3])
def test_unbounded_profile_does_not_converge(n):
    with pytest.raises(DomainError, match="did not converge"):
        radial_eigenvalue(RadialSymbol(lambda u: np.exp(u), math.inf), n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_eigenvalue_converges():
    # below the smallest normal float the levels' sums are rounded to a fixed
    # quantum; at this scale no two levels agreed bit for bit
    scale = 3.20661711422e-312
    sym = RadialSymbol(lambda u: scale * np.exp(-u), math.inf)
    want = scale / 3.0**6
    assert abs(radial_eigenvalue(sym, 5) - want) <= np.finfo(float).tiny


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sign_changing_profile_with_zero_eigenvalue():
    # c(u) = u/2 - 1 gives lambda_0 = integral (s - 1) e^{-s} ds = 0
    sym = RadialSymbol(lambda u: u / 2 - 1, math.inf)
    assert abs(radial_eigenvalue(sym, 0)) <= 1e-15
    assert radial_eigenvalue(sym, 1) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unannounced_jump_fails_the_error_estimate():
    # a jump at u = 3 that ``support`` does not mark: the rule's levels
    # never agree to 1e-12, and the eigenvalue is refused
    sym = RadialSymbol(lambda u: (u <= 3.0) * 1.0, math.inf)
    with pytest.raises(DomainError, match="error estimate inf too large"):
        radial_eigenvalue(sym, 2)


@pytest.mark.parametrize("R", suites.TOEPLITZ_RADII)
def test_toeplitz_suite_runs_one_radial_quadrature(monkeypatch, R):
    # the matrix diagonal is checked against the series check's radial rows
    calls = []
    quad = toeplitz._adaptive_quad
    monkeypatch.setattr(toeplitz, "_adaptive_quad", lambda *args: calls.append(R) or quad(*args))
    assert all(c["pass"] for c in suites.suite_toeplitz(R, 11))
    assert len(calls) == 1


def test_deep_tail_underflows_to_zero():
    assert disk_eigenvalue(1.0, 200) == 0.0


@pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
def test_disk_formula_equals_radial_quadrature(R):
    sym = RadialSymbol.indicator(R)
    for n in range(11):
        assert abs(disk_eigenvalue(R, n) - radial_eigenvalue(sym, n)) <= 1e-10


def test_spectrum_rows_schema_and_agreement():
    rows = spectrum_rows(1.0, 5)
    assert [r["n"] for r in rows] == list(range(5))
    for r in rows:
        assert r["abs_diff"] <= 1e-10
        assert r["abs_diff"] == pytest.approx(
            abs(r["lambda_formula"] - r["lambda_quadrature"]))


def test_disk_eigenvalues_decrease_in_n_increase_in_R():
    for R in (0.5, 1.0, 3.0):
        vals = [disk_eigenvalue(R, n) for n in range(8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    for n in range(4):
        across = [disk_eigenvalue(R, n) for R in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(across, across[1:]))


def test_radius_recovery_roundtrip():
    for R in (0.5, 1.0, 2.5):
        assert abs(radius_from_groundstate(disk_eigenvalue(R, 0)) - R) <= 1e-12
    with pytest.raises(DomainError):
        radius_from_groundstate(1.0)


def test_matrix_entries_indicator():
    sym = RadialSymbol.indicator(1.0)
    assert abs(toeplitz_matrix_quad(sym, 0, 1)) <= 1e-6
    assert abs(toeplitz_matrix_quad(sym, 0, 0) - (1 - math.exp(-1))) <= 1e-5


def _sum_on(monkeypatch, grid):
    """From now on the Toeplitz blocks sum on ``grid``, whatever their
    indices: their default grid is it."""
    monkeypatch.setattr(toeplitz, "default_toeplitz_grid", lambda sym, max_index: grid)


def test_matrix_constant_symbol_is_identity(monkeypatch):
    sym = RadialSymbol(lambda u: 1.0, math.inf)
    _sum_on(monkeypatch, default_toeplitz_grid(sym, 3))
    for m in range(4):
        for n in range(m, 4):
            got = toeplitz_matrix_quad(sym, m, n)
            want = 1.0 if m == n else 0.0
            assert abs(got - want) <= 1e-6


@pytest.mark.parametrize("sym", [RadialSymbol.indicator(1.0), RadialSymbol.gaussian(0.5)],
                         ids=["indicator", "exponential"])
def test_matrix_diagonal_matches_radial_route(monkeypatch, sym):
    _sum_on(monkeypatch, default_toeplitz_grid(sym, 6))
    for n in range(7):
        diag = toeplitz_matrix_quad(sym, n, n)
        assert abs(diag - radial_eigenvalue(sym, n)) <= 1e-5


def test_indicator_requires_positive_radius():
    with pytest.raises(DomainError):
        RadialSymbol.indicator(0.0)


def _reference_entry(sym, m, n, grid):
    # one plain sum over the nodes per entry, scalar arithmetic throughout
    def varphi(k, z):
        return z**k / math.sqrt(math.pi * 2.0 ** (k + 1) * math.factorial(k))

    return sum(
        w * sym.c(abs(z) ** 2) * varphi(m, z) * varphi(n, z).conjugate()
        * math.exp(-abs(z) ** 2 / 2)
        for z, w in zip(grid.nodes.tolist(), grid.weights.tolist())
    )


def test_block_matches_per_node_reference(monkeypatch):
    # three angles alias e^{3ik theta} to 1: entries with |m - n| in {3, 6}
    # are genuinely nonzero, so the off-diagonal comparison has substance
    sym = RadialSymbol.gaussian(0.5)
    grid = polar_grid(12.0, n_r=40, n_theta=3)
    _sum_on(monkeypatch, grid)
    N = 7
    got = toeplitz_block_quad(sym, N)
    want = np.array([[_reference_entry(sym, m, n, grid) for n in range(N)] for m in range(N)])
    assert abs(want[0, 3]) > 1e-3 and abs(want[1, 4]) > 1e-3
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * abs(want).max())
    for m, n in ((0, 3), (6, 0), (2, 2)):
        assert toeplitz_matrix_quad(sym, m, n) == pytest.approx(got[m, n], rel=1e-12)


def _per_node_block(sym, N, grid):
    """The N x N block and its total and outer-shell masses as sums over the
    grid's nodes, weights and shell ``|z - center| >= reach``: ``w c(|z|^2)
    e^{-|z|^2/2} varphi_m
    conj(varphi_n)`` with the varphi_k from their closed form."""
    z, w = grid.nodes, grid.weights
    u = abs(z) ** 2
    k = np.arange(N)[:, None]
    factorials = np.array([math.factorial(j) for j in range(N)], dtype=float)[:, None]
    varphi = z**k / np.sqrt(math.pi * 2.0 ** (k + 1) * factorials)
    rows = varphi * (w * sym.c(u) * np.exp(-u / 2))
    block = np.einsum("jn,kn->jk", rows, varphi.conj())
    mass = np.einsum("jn,kn->jk", abs(rows), abs(varphi))
    on = np.abs(z - grid.center) >= grid.reach
    shell = np.einsum("jn,kn->jk", abs(rows[:, on]), abs(varphi[:, on]))
    return block, mass, shell


def test_polar_block_is_the_per_node_block(monkeypatch):
    # radial sums times angular sums against the per-node block on the same
    # nodes and weights; three angles alias e^{3ik theta} to 1, so entries
    # with |m - n| in {3, 6} are nonzero
    sym = RadialSymbol.gaussian(0.5)
    for grid in (polar_grid(12.0, n_r=40, n_theta=3), default_toeplitz_grid(sym, 6)):
        _sum_on(monkeypatch, grid)
        got = toeplitz_block_quad(sym, 7)
        want = _per_node_block(sym, 7, grid)[0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * abs(want).max())
    # both routes see the same outer-shell nodes: the radial route raises
    # exactly where the per-node shell mass exceeds the tolerance
    grid = polar_grid(6.0, n_r=60, n_theta=16)
    _sum_on(monkeypatch, grid)
    for N, raises in ((2, False), (7, True)):
        _, mass, shell = _per_node_block(sym, N, grid)
        assert (shell > TRUNCATION_TOL * mass).any() == raises
        if raises:
            with pytest.raises(TruncationError):
                toeplitz_block_quad(sym, N)
        else:
            toeplitz_block_quad(sym, N)


def test_the_blocks_read_the_angles_of_their_polar_grid_bit_for_bit(monkeypatch):
    # the angles are not kept with the grid: the blocks take them from the
    # helper polar_grid forms its turns e^{i theta} with
    sym = RadialSymbol.gaussian(0.5)
    seen = []
    angles = toeplitz._angles
    monkeypatch.setattr(toeplitz, "_angles", lambda n: seen.append(angles(n)) or seen[-1])
    for grid in (polar_grid(12.0, n_r=40, n_theta=3), default_toeplitz_grid(sym, 6)):
        _sum_on(monkeypatch, grid)
        toeplitz_block_quad(sym, 7)
        theta = seen[-1]
        n = grid.second.size
        assert theta.tobytes() == (2.0 * math.pi * np.arange(n) / n).tobytes()
        assert (np.cos(theta) + 1j * np.sin(theta)).tobytes() == grid.second.tobytes()


def test_block_and_entry_raise_truncation_where_a_single_sum_would(monkeypatch):
    # r_max = 6: the outer shell holds ~1e-14 of the (0, 0) mass but ~1e-8
    # of the (6, 6) mass, above TRUNCATION_TOL
    sym = RadialSymbol.gaussian(0.5)
    _sum_on(monkeypatch, polar_grid(6.0, n_r=60, n_theta=16))
    toeplitz_matrix_quad(sym, 0, 0)
    toeplitz_block_quad(sym, 2)
    with pytest.raises(TruncationError):
        toeplitz_matrix_quad(sym, 6, 6)
    with pytest.raises(TruncationError):
        toeplitz_block_quad(sym, 7)


def test_block_rejects_empty_and_negative_indices():
    sym = RadialSymbol.gaussian(0.5)
    with pytest.raises(DomainError):
        toeplitz_block_quad(sym, 0)
    with pytest.raises(DomainError):
        toeplitz_matrix_quad(sym, -1, 0)


@pytest.mark.parametrize("m,n", [(-3, -4), (0, -7), (-1, 0)])
def test_entry_rejects_negative_indices_before_sizing_its_grid(monkeypatch, m, n):
    # both indices below -2 used to reach the grid's sqrt(2 (max + 2)) first
    def no_grid(sym, max_index):
        raise AssertionError("grid sized for a negative index")

    monkeypatch.setattr(toeplitz, "default_toeplitz_grid", no_grid)
    with pytest.raises(DomainError, match="index must be >= 0"):
        toeplitz_matrix_quad(RadialSymbol.gaussian(0.5), m, n)


@pytest.mark.parametrize("R", [1e8, 1e10, 1e15, 1e20])
def test_a_disk_beyond_the_weight_has_the_series_diagonal(R):
    # the boundary sqrt(2R) lies beyond the weight's reach: the grid stays
    # on that reach, where the indicator is 1, instead of widening to
    # sqrt(2R) + 6 with the same radial node count (which read an all-zero
    # block from about R = 1e15)
    G = toeplitz_block_quad(RadialSymbol.indicator(R), 3)
    for n in range(3):
        assert abs(G[n, n] - disk_eigenvalue(R, n)) <= 1e-12


def test_a_huge_disk_suite_fails_only_its_radius_roundtrip():
    failing = [c["name"] for c in suites.suite_toeplitz(1e15, 3) if not c["pass"]]
    assert failing == ["radius_roundtrip"]
