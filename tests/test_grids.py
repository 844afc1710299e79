"""Plane and polar grids kept as their axes.

Their nodes and outer shells are formed chunk by chunk from per-axis
arrays; here they are checked, bit for bit, against the whole-grid formulas
the grids were once built with, and the shells against their definition on
every grid of the certification battery.  A per-node reference is a grid's
one-axis twin: its nodes and weights on one axis, with its centre and reach.
The exponent forms the kernels fit their grids to are checked against the
exponents built from ``phasecore`` and against the six-point fit of those.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from bargmann_lab import bargmann, suites
from bargmann_lab.bargmann import (
    QuadGrid,
    Quadratic,
    hphi_grid,
    line_grid,
    plane_grid,
    polar_grid,
    transform,
)
from bargmann_lab.ellipse import bridge_params, derived_constants, psi_n
from bargmann_lab.gaussalg import DomainError
from bargmann_lab.hermite import HermiteSystem
from bargmann_lab.phasecore import PhaseParams, canonical_A
from exponent_reference import (
    adjoint_exponent,
    adjoint_form,
    fit_quad_2d,
    line_exponent,
    line_form,
    pair_exponent,
    projector_exponent,
    projector_forms,
    quadratic_parts,
    row,
)

GENERAL = PhaseParams(canonical_A(3.0, 1 + 2j), 3.0, 1 + 2j, 0.5)

# -0.5 x^2 + 0.25 x y - 0.25 y^2 + 0.5 x - 0.25 y, a real exponent
_REAL = Quadratic(-0.0625 - 0.0625j, 0.25 + 0.125j, -0.0625 - 0.0625j, 0.25 + 0.125j, -0.375)
# -0.8 x^2 + 0.3 x y - 0.4 y^2 + 0.2 x + i (0.5 x^2 + 0.9 x y - 0.5 y^2 + 0.7 y)
_COMPLEX = Quadratic(0.125 + 0.175j, 0.45, -0.325 - 0.325j, -0.25, -0.6)
_LINE = Quadratic(-1.0, 0j)


_U3 = transform(GENERAL, HermiteSystem(GENERAL).hermite_phi(3))


def _eager_plane(exponent, n):
    """Nodes and weights of ``plane_grid(exponent, n)`` over the whole grid
    at once, from the meshgrid of the rule and the grid's fit."""
    zc, (l1, l2), det = bargmann._plane_axes(exponent)
    t, ew = bargmann._hermite_rule(n)
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    x = (zc.real + t1 * l1.real) + t2 * l2.real
    y = (zc.imag + t1 * l1.imag) + t2 * l2.imag
    return (x + 1j * y).reshape(-1), (np.outer(ew, ew) * det).reshape(-1)


def _eager_polar(r_max, split, n_r=400, n_theta=128):
    """Nodes and weights of ``polar_grid`` from the meshgrid of its axes."""
    t, w = bargmann._legendre_rule(n_r)
    breaks = [0.0, r_max] if split is None else [0.0, split, r_max]
    r = np.concatenate([(b - a) / 2.0 * t + (b + a) / 2.0 for a, b in zip(breaks, breaks[1:])])
    wr = np.concatenate([(b - a) / 2.0 * w for a, b in zip(breaks, breaks[1:])]) * r
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    nodes = (rr * np.cos(tt) + 1j * (rr * np.sin(tt))).reshape(-1)
    return nodes, np.repeat(wr * (2.0 * math.pi / n_theta), n_theta)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _defined_shell(nodes):
    r = np.abs(nodes - nodes.mean())
    return r >= 0.95 * r.max()


def _one_axis(nodes, weights, center, reach):
    """The grid of these nodes and weights on one axis, with this shell."""
    zero = -np.zeros(1, nodes.dtype)  # first[i] + (-0.0) is first[i], bit for bit
    return QuadGrid(nodes, zero, weights, np.ones(1), 1.0, center, reach)


def _twin(grid):
    """A grid's one-axis twin: its nodes, weights, centre and reach."""
    return _one_axis(grid.nodes, grid.weights, grid.center, grid.reach)


CASES = {
    "plane, real exponent": (
        lambda: plane_grid(_REAL),
        lambda: _eager_plane(_REAL, 160),
    ),
    "plane, complex exponent": (
        lambda: plane_grid(_COMPLEX, n=97),
        lambda: _eager_plane(_COMPLEX, 97),
    ),
    "plane, transform pair": (
        lambda: hphi_grid(GENERAL, _U3, _U3),
        lambda: _eager_plane(bargmann._pair_exponent(GENERAL, _U3, _U3), 160),
    ),
    "polar, split": (lambda: polar_grid(7.5, split_at=2.5), lambda: _eager_polar(7.5, 2.5)),
    "polar, no split": (lambda: polar_grid(9.0), lambda: _eager_polar(9.0, None)),
}


def _unformed(grid):
    """Whether none of the grid's whole-grid arrays has been formed."""
    return not {"nodes", "weights"} & set(vars(grid))


@pytest.mark.parametrize("build,eager", CASES.values(), ids=CASES)
def test_tensor_grids_form_the_nodes_of_the_whole_grid_formulas_bit_for_bit(build, eager):
    grid = build()
    nodes, weights = eager()
    assert _unformed(grid)  # nothing per node until asked for
    assert _same_bits(grid.weights, weights)
    assert "nodes" not in vars(grid)  # the weights are formed on their own
    assert _same_bits(grid.nodes, nodes)
    # and chunk by chunk, as the sums form them, across rows cut by a chunk
    shell = _defined_shell(nodes)
    for part, z, w, on in grid.chunks():
        assert _same_bits(z, nodes[part])
        assert _same_bits(w, weights[part])
        assert _same_bits(on, shell[part])


def _signed(l):
    """An axis signed as :func:`plane_grid` signs it: Re > 0, or Im > 0."""
    return -l if l.real < 0 or (l.real == 0 and l.imag < 0) else l


def _eigen_solver_fit(exponent):
    """``plane_grid``'s centre, axes and ``|det L|`` by numpy's eigen- and
    linear solvers, the way the grid was fitted before its closed form."""
    M, L, M_im = quadratic_parts(exponent)
    evals, evecs = np.linalg.eigh(M)
    frame = evecs / np.sqrt(-evals)
    dirs = frame @ np.linalg.eigh(frame.T @ M_im @ frame)[1] if M_im.any() else frame
    center = np.linalg.solve(2.0 * M, -L)
    return complex(*center), [_signed(complex(*dirs[:, k])) for k in (0, 1)], 1 / math.sqrt(evals.prod())


_PAIR = bargmann._pair_exponent(GENERAL, _U3, _U3)
_FITS = {"real": _REAL, "complex": _COMPLEX, "transform pair": _PAIR}


@pytest.mark.parametrize("exponent", _FITS.values(), ids=_FITS)
def test_the_closed_form_fit_is_the_eigen_solvers_to_round_off(exponent):
    zc, steps, det = bargmann._plane_axes(exponent)
    want_zc, want_steps, want_det = _eigen_solver_fit(exponent)
    size = max(map(abs, want_steps))
    assert abs(zc - want_zc) <= 1e-14 * (abs(want_zc) + size)
    for l, want in zip(steps, want_steps):
        assert abs(l - want) <= 1e-14 * size
    assert abs(det - want_det) <= 1e-14 * want_det


def _random_form(rng):
    """A decaying form, whose M_re has the eigenvalues m +- |q2 + r2|; one
    in five is real (q2 - r2 = 0)."""
    def z(scale):
        return complex(rng.gauss(0, scale), rng.gauss(0, scale))

    q2, r2 = z(1.0), z(1.0)
    if rng.random() < 0.2:
        r2 = q2
    return Quadratic(q2, z(2.0), r2, z(2.0), -abs(q2 + r2) - 2.0 * rng.random() - 1e-3)


def test_the_closed_form_fit_diagonalizes_random_forms():
    # on the axes, the real part is -(t_1^2 + t_2^2) with no cross term, and
    # so is the imaginary part's quadratic; the centre is the real part's
    # maximum; the axes come in the order of the eigen-solvers' and signed
    rng = random.Random(46)
    for _ in range(500):
        form = _random_form(rng)
        M, L, M_im = quadratic_parts(form)
        zc, steps, det = bargmann._plane_axes(form)
        V = np.array([[l.real for l in steps], [l.imag for l in steps]])
        re, im = V.T @ M @ V, V.T @ M_im @ V
        assert np.abs(re + np.eye(2)).max() <= 1e-13
        assert abs(im[0, 1]) <= 1e-13 * max(np.abs(M_im).max() * (V**2).sum(), 1e-300)
        assert abs(det - abs(np.linalg.det(V))) <= 1e-13 * det
        residual = 2.0 * M @ [zc.real, zc.imag] + L
        assert np.abs(residual).max() <= 1e-13 * (np.abs(M).max() * abs(zc) + np.abs(L).max())
        assert all(l == _signed(l) for l in steps)
        order = np.diag(im) if M_im.any() else -1 / np.abs(V**2).sum(axis=0)
        assert order[0] <= order[1] + 1e-13 * np.abs(order).max()


#: Powers of two of the dilation ladder, fixed before the first run.
_LADDER = (-500, -341, -100, -37, -1, 1, 2, 64, 100, 293, 500)


def _dilated(form, k):
    """The form of ``E(2^k z)``'s quadratic coefficients: ``4^k`` times the
    quadratic ones, ``2^k`` times the linear ones."""
    q2, q1, r2, r1, m, c = (complex(v) for v in form)
    return Quadratic(_power_of_two(q2, 2 * k), _power_of_two(q1, k), _power_of_two(r2, 2 * k),
                     _power_of_two(r1, k), math.ldexp(m.real, 2 * k), c)


def _power_of_two(a, k):
    """2^k a, part by part, for a complex number or array."""
    if isinstance(a, complex):
        return complex(math.ldexp(a.real, k), math.ldexp(a.imag, k))
    return np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)


@pytest.mark.parametrize("exponent", _FITS.values(), ids=_FITS)
def test_the_fit_is_exactly_covariant_under_powers_of_two(exponent):
    base = plane_grid(exponent)
    for k in _LADDER:
        grid = plane_grid(_dilated(exponent, k))
        assert _same_bits(grid.first, _power_of_two(base.first, -k)), k
        assert _same_bits(grid.second, _power_of_two(base.second, -k)), k
        assert grid.steps == tuple(_power_of_two(l, -k) for l in base.steps), k
        assert grid.center == _power_of_two(base.center, -k), k
        assert grid.scale == math.ldexp(base.scale, -2 * k), k


#: Powers of two that B is dilated by, fixed before the first run: |B| from
#: about 1e-151 to 3e147.  Below about 1e-77 U's coefficients in monomials
#: of z underflow, so no plane sum may form them.
_B_LADDER = (-500, -400, -300, -270, -260, -250, -100, -1, 1, 100, 250, 300, 400, 490)


def test_unitarity_is_the_same_bits_under_power_of_two_dilations_of_B():
    # the plane sums evaluate U at points of the grid, which dilate by 2^-k
    # as U's basis y0 + y1 z does by 2^k: nothing rounds differently
    def measured(B, C, h, k):
        B = complex(math.ldexp(B.real, k), math.ldexp(B.imag, k))
        checks = {c["name"]: c["measured"] for c in suites.suite_transform(B, C, h, 2026)}
        return checks["unitarity_max_dev[pairs=20]"], checks["adjoint_roundtrip_max"]

    for B, C, h in suites.HERMITE_PARAM_SETS:
        base = measured(complex(B), C, h, 0)
        for k in _B_LADDER:
            assert measured(complex(B), C, h, k) == base, (B, k)


@pytest.mark.parametrize("build", [
    *(build for build, _ in CASES.values()),
    lambda: line_grid(_LINE, 300),
    lambda: _one_axis(np.linspace(-3, 3, 20_000) * (1 + 0.5j), np.full(20_000, 1e-3), 0j, 3.0),
], ids=[*CASES, "line", "hand-built"])
def test_chunks_cover_the_nodes_in_order_bit_for_bit(build):
    grid = build()
    parts = []
    shell = np.abs(grid.nodes - grid.center) >= grid.reach
    for part, z, w, on in grid.chunks():
        assert part.stop - part.start <= bargmann._CHUNK
        assert _same_bits(z, grid.nodes[part])
        assert _same_bits(w, grid.weights[part])
        assert _same_bits(on, shell[part])
        parts.append(part)
    starts = [0, *(part.stop for part in parts)]
    assert [part.start for part in parts] == starts[:-1]
    assert starts[-1] == grid.size == grid.weights.size


def _recording_grids(monkeypatch) -> list:
    """The grids built from now on, in order."""
    grids = []
    init = QuadGrid.__init__

    def recording(grid, *axes, **options):
        init(grid, *axes, **options)
        grids.append(grid)

    monkeypatch.setattr(QuadGrid, "__init__", recording)
    return grids


def test_shells_are_their_definition_on_every_grid_of_the_battery(monkeypatch):
    grids = _recording_grids(monkeypatch)
    assert all(c["pass"] for c in suites.suite_all(2026))
    plane = [g.steps is not None for g in grids]
    polar = [g.join is np.multiply for g in grids]
    assert (sum(plane), sum(polar)) == (133, 6)
    assert len(grids) - 139 > 0  # the line grids
    for grid in grids:
        shell = _defined_shell(grid.nodes)
        for part, _, _, on in grid.chunks():
            assert np.array_equal(on, shell[part])


def test_per_axis_factors_are_the_exponential_on_every_node(monkeypatch):
    # the kernels hand _fitted_factors, unchecked, the exponent they fitted
    # its grid to: on every grid of the five transform suites and an
    # ellipse Gram, a_i b_j is e^E node by node, to
    # 1e-13 relative times 1 + |E| (each side rounds an exponent of size |E|;
    # E reaches about 620 in magnitude on these grids) and to 1e-13 of the
    # grid's largest e^E
    calls = []
    fitted = bargmann._fitted_factors

    def recording(grid, exponent):
        calls.append((grid, exponent, fitted(grid, exponent)))
        return calls[-1][2]

    monkeypatch.setattr(bargmann, "_fitted_factors", recording)
    for B, C, h in suites.HERMITE_PARAM_SETS:
        suites.suite_transform(B, C, h, 2026)
    suites.ellipse_gram(2.0, 1.0, 7)
    assert len(calls) == 131
    for grid, exponent, (a, b) in calls:
        E = np.atleast_2d(exponent(grid.nodes))  # the projector's: one row per point
        want = np.exp(E)
        pairs = zip(np.atleast_2d(a), np.atleast_2d(b))
        got = np.array([bargmann._outer(np.multiply, *ab, 0, grid.size) for ab in pairs])
        error = np.abs(got - want)
        assert (error <= 1e-13 * (1 + np.abs(E)) * np.abs(want)).all()
        assert (error <= 1e-13 * np.abs(want).max(axis=-1, keepdims=True)).all()


#: The phase data of the transform suites and of the ellipse bridge.
_PHASES = [
    *(PhaseParams(canonical_A(B, C), B, C, h) for B, C, h in suites.HERMITE_PARAM_SETS),
    *(bridge_params(derived_constants(a, b)) for a, b in suites.ELLIPSE_SETS),
]


def _terms(form, z):
    """The sum of the moduli of a form's terms at z."""
    q2, q1, r2, r1, m, c = form
    z2 = abs(z) ** 2
    return (abs(q2) + abs(r2) + abs(m)) * z2 + (abs(q1) + abs(r1)) * abs(z) + abs(c)


@seed(31)
@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from(_PHASES),
    x=st.floats(-2.0, 2.0),
    n_points=st.sampled_from([1, 10]),
    draw=st.integers(0, 2**32 - 1),
)
def test_each_kernel_form_is_its_phasecore_exponent_and_its_six_point_fit(p, x, n_points, draw):
    # each form the kernels build (the pair, the adjoint at x, the projector
    # at 0 and at each of its points, transform_quad's line at a point) is
    # the exponent built from phasecore at every z, to 1e-13 of its terms;
    # and the quadratic forms the grids read from its coefficients are the
    # six-point fit of that exponent, to 1e-12 of the largest entry
    rng = random.Random(draw)
    U, V = (transform(p, suites._random_line_function(rng)) for _ in range(2))
    f = suites._random_line_function(rng)
    points = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(n_points)]
    at_zero, columns = projector_forms(p, U, points)
    z0 = points[0]
    cases = [
        (bargmann._pair_exponent(p, U, V), pair_exponent(p, U, V)),
        (adjoint_form(p, U, x), adjoint_exponent(p, U, x)),
        (at_zero, projector_exponent(p, U, 0j)),
        *((row(columns, i), projector_exponent(p, U, z)) for i, z in enumerate(points)),
        (line_form(p, f, z0), line_exponent(p, f, z0)),
    ]
    z = np.array([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(64)])
    for form, exponent in cases:
        assert (np.abs(form(z) - exponent(z)) <= 1e-13 * _terms(form, z)).all()
        read, fitted = quadratic_parts(form), fit_quad_2d(exponent)
        largest = max(np.abs(part).max() for part in fitted)
        for mine, theirs in zip(read, fitted):
            assert np.abs(mine - theirs).max() <= 1e-12 * largest


def _built(build):
    """What ``build()`` returns (a grid, a sum) and the peak of the memory
    that call traced."""
    build()  # the first build of a size fills the Gauss rule cache
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [
    lambda: polar_grid(9.0, split_at=3.0),
    lambda: plane_grid(_COMPLEX),
], ids=["polar", "plane"])
def test_grids_allocate_nothing_per_node(build):
    grid, peak = _built(build)
    # one bool per node is the smallest array with one entry per node
    assert peak < grid.size, peak
    assert _unformed(grid)


def test_a_line_grid_allocates_nothing_per_node_but_its_one_axis():
    # its one axis is its nodes; beside it, less than one byte more per node
    (small, low), (large, high) = (_built(lambda: line_grid(_LINE, n)) for n in (100, 700))
    assert high - low - (large.first.nbytes - small.first.nbytes) < large.size - small.size
    assert _unformed(large)


def test_sums_leave_the_whole_grid_arrays_unformed(monkeypatch):
    p = PhaseParams.classic()
    fs = [psi_n(derived_constants(2.0, 1.0), k) for k in range(8)]
    grids = _recording_grids(monkeypatch)
    bargmann.gram_HPhi(p, fs)
    grid = plane_grid(_COMPLEX)
    bargmann._quad_block(grid, lambda z: [np.exp(-abs(z) ** 2)], lambda z: [1.0])
    assert len(grids) == 2 and all(map(_unformed, grids))


def test_a_node_sum_holds_few_chunk_arrays_at_once(monkeypatch):
    # the exponential factor and the weights multiply the rows in place, and
    # a chunk's moduli are freed before the next chunk's rows are formed: a
    # 7 x 7 Gram block's peak grows by under 3 complex arrays of 7 rows per
    # node added to the chunk (2.64 from 2,048 to 8,192 nodes; 3.31 when
    # each product was a new array)
    fs = [psi_n(derived_constants(2.0, 0.0), k) for k in range(7)]
    p = PhaseParams.classic()
    peaks = {}
    for chunk in (2048, 8192):
        monkeypatch.setattr(bargmann, "_CHUNK", chunk)
        peaks[chunk] = _built(lambda: bargmann.gram_HPhi(p, fs))[1]
    assert peaks[8192] - peaks[2048] < 3 * len(fs) * (8192 - 2048) * 16, peaks


@pytest.mark.parametrize("n,bound", [
    # bounds pinned before the chunks shrank to 2,048 nodes: 0.8 MB at 7 rows
    # (2.53 MB at 8,192-node chunks), and three complex arrays of 64 rows by
    # one chunk at 64 rows (21.4 MB at 8,192-node chunks)
    (7, 0.8e6),
    (64, 3 * 64 * 2048 * 16),
])
def test_an_ellipse_gram_is_summed_within_its_memory_bound(n, bound):
    peak = _built(lambda: suites.ellipse_gram(0.5, 3.0, n))[1]
    assert peak <= bound, peak


@pytest.mark.parametrize("build", [
    lambda: plane_grid(_COMPLEX),
    lambda: polar_grid(9.0, split_at=3.0),
], ids=["plane", "polar"])
def test_sums_on_a_tensor_grid_are_the_sums_on_its_nodes_bit_for_bit(build):
    grid = build()
    copy = _twin(grid)

    def rows(z):
        return [np.exp(-abs(z) ** 2), z * np.exp(-0.8 * abs(z) ** 2)]

    def cols(z):
        return [1.5, np.exp(-0.2 * abs(z) ** 2 + 0.5j * z.real)]

    def one(z):
        return [1.0]

    for got, want in (
        (bargmann._quad_block(grid, rows, one), bargmann._quad_block(copy, rows, one)),
        (bargmann._quad_block(grid, rows, cols), bargmann._quad_block(copy, rows, cols)),
        (bargmann._quad_block(grid, rows, None), bargmann._quad_block(copy, rows, None)),
    ):
        assert _same_bits(got, want)


def test_a_one_axis_grid_is_read_only_and_sums_node_by_node():
    nodes = np.array([0.0, 1.0, -2.0, 3.5, 0.25])
    weights = np.array([1.0, 2.0, 0.5, 1.0, 0.75])
    mean = nodes.mean()
    grid = _one_axis(nodes, weights, mean, 0.95 * np.abs(nodes - mean).max())
    assert grid.nodes.tolist() == [0.0, 1.0, -2.0, 3.5, 0.25]
    assert grid.weights.tolist() == [1.0, 2.0, 0.5, 1.0, 0.75]
    [(_, _, _, on)] = grid.chunks()
    assert on.tolist() == _defined_shell(grid.nodes).tolist() == [
        False, False, False, True, False,
    ]
    assert grid.steps is None and grid.join is np.add
    for arr in (nodes, weights, grid.nodes, grid.weights):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        grid.weights = weights
    with pytest.raises(DomainError, match="positive"):
        _one_axis(nodes, -weights, mean, 1.0)
    # a one-axis grid's sums are the plain per-node sums
    got = bargmann._quad_block(grid, lambda x: [np.exp(-8 * x * x)], lambda x: [1.0])[0, 0]
    want = sum(w * math.exp(-8 * x * x) for x, w in zip(grid.nodes.tolist(), grid.weights.tolist()))
    assert got == pytest.approx(want, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_largest_hermite_rule_builds_warning_free():
    n = bargmann._HERMITE_MAX
    t, w = bargmann._hermite_rule(n)
    assert t.size == w.size == n and np.isfinite(w).all() and (w > 0).all()
    # it integrates e^{-t^2} and t^2 e^{-t^2} to round-off
    e = np.exp(-t * t)
    assert (w * e).sum() == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert (w * e * t * t).sum() == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build", [
    lambda n: bargmann._hermite_rule(n),
    lambda n: line_grid(_LINE, n=n),
    lambda n: plane_grid(Quadratic(0j, 0j, m=-1.0), n=n),
], ids=["rule", "line", "plane"])
def test_a_hermite_rule_above_the_bound_is_a_domain_error_naming_n(build):
    for n in (bargmann._HERMITE_MAX + 1, 780):
        with pytest.raises(DomainError, match=f"^n = {n} exceeds"):
            build(n)
