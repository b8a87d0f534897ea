import math

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import simpson

from spde_drift.errors import ConfigurationError
from spde_drift.fields import (
    ALLEN_CAHN,
    FHNParams,
    GridSpec,
    NemytskiiPlan,
    NonlinearitySpec,
    _cos_to_sine_projection,
    burgers_modes,
    default_grid,
    fhn_drift,
    grid_to_modes,
    modes_to_grid,
    nemytskii_modes,
)
from spde_drift.spectrum import OperatorSpec

PI = math.pi
SPEC = OperatorSpec()


def dense_projection(x, f, n_out, n_points=10_001, L=1.0):
    """Independent oracle: composite-Simpson quadrature of (f(u), Phi_k)."""
    xs = np.linspace(0.0, L, n_points)
    k = np.arange(1, len(x) + 1)
    u = math.sqrt(2.0 / L) * np.sin(PI * np.outer(xs, k) / L) @ np.asarray(x)
    w = f(u)
    out = np.empty(n_out)
    for kk in range(1, n_out + 1):
        phi = math.sqrt(2.0 / L) * np.sin(kk * PI * xs / L)
        out[kk - 1] = simpson(w * phi, x=xs)
    return out


def dense_burgers(x, n_out, n_points=10_001, L=1.0):
    xs = np.linspace(0.0, L, n_points)
    k = np.arange(1, len(x) + 1)
    c = np.asarray(x)
    u = math.sqrt(2.0 / L) * np.sin(PI * np.outer(xs, k) / L) @ c
    du = math.sqrt(2.0 / L) * (np.cos(PI * np.outer(xs, k) / L) * (k * PI / L)) @ c
    w = -u * du
    out = np.empty(n_out)
    for kk in range(1, n_out + 1):
        phi = math.sqrt(2.0 / L) * np.sin(kk * PI * xs / L)
        out[kk - 1] = simpson(w * phi, x=xs)
    return out


def test_modes_to_grid_zero():
    grid = GridSpec(n_grid=7, n_modes_keep=7)
    u = modes_to_grid(np.zeros(5), grid, SPEC)
    assert np.array_equal(u, np.zeros(7))


def test_modes_to_grid_first_mode_small_grid():
    grid = GridSpec(n_grid=3, n_modes_keep=3)
    u = modes_to_grid([1.0], grid, SPEC)
    expected = [math.sqrt(2) * math.sin(PI / 4), math.sqrt(2) * math.sin(PI / 2),
                math.sqrt(2) * math.sin(3 * PI / 4)]
    assert u == pytest.approx(expected, rel=1e-14)
    assert u == pytest.approx([1.0, math.sqrt(2), 1.0], rel=1e-14)


def test_too_many_modes_rejected():
    grid = GridSpec(n_grid=3, n_modes_keep=3)
    with pytest.raises(ConfigurationError):
        modes_to_grid(np.ones(4), grid, SPEC)


def test_grid_size_mismatch_rejected():
    grid = GridSpec(n_grid=8, n_modes_keep=4)
    with pytest.raises(ConfigurationError):
        grid_to_modes(np.zeros(7), grid, SPEC)


@pytest.mark.parametrize("m_g", [63, 256, 1024])
def test_transform_round_trip(m_g):
    rng = np.random.default_rng(m_g)
    grid = GridSpec(n_grid=m_g, n_modes_keep=m_g)
    for _ in range(5):
        x = rng.standard_normal(int(rng.integers(1, m_g + 1)))
        back = grid_to_modes(modes_to_grid(x, grid, SPEC), grid, SPEC)
        assert back[: len(x)] == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert np.max(np.abs(back[len(x):])) < 1e-12


def test_round_trip_specific_pair():
    grid = GridSpec(n_grid=15, n_modes_keep=2)
    back = grid_to_modes(modes_to_grid([0.3, -0.1], grid, SPEC), grid, SPEC)
    assert back == pytest.approx([0.3, -0.1], abs=1e-14)


def test_grid_to_modes_orthonormality():
    # Phi_2 sampled on the grid maps to the unit coefficient vector e_2.
    grid = GridSpec(n_grid=31, n_modes_keep=5)
    xs = np.arange(1, 32) / 32.0
    phi2 = math.sqrt(2.0) * np.sin(2 * PI * xs)
    coeffs = grid_to_modes(phi2, grid, SPEC)
    expected = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    assert coeffs == pytest.approx(expected, abs=1e-13)


def test_parseval():
    rng = np.random.default_rng(42)
    grid = GridSpec(n_grid=255, n_modes_keep=255)
    for _ in range(10):
        x = rng.standard_normal(int(rng.integers(1, 256)))
        u = modes_to_grid(x, grid, SPEC)
        lhs = np.sum(u * u) * (1.0 / (grid.n_grid + 1))
        assert lhs == pytest.approx(np.sum(x * x), rel=1e-10)


def test_nemytskii_identity_map():
    grid = GridSpec(n_grid=63, n_modes_keep=16)
    ident = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 1.0))
    rng = np.random.default_rng(3)
    x = rng.standard_normal(16)
    out = nemytskii_modes(x, ident, grid, SPEC, 16)
    assert out == pytest.approx(x, abs=1e-13)


def test_nemytskii_pure_cube_single_mode():
    # u = sqrt(2) sin(pi x): u^3 = (3/2) Phi_1 - (1/2) Phi_3
    grid = GridSpec(n_grid=31, n_modes_keep=8)
    cube = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.0, 0.0, 1.0))
    out = nemytskii_modes([1.0], cube, grid, SPEC, 8)
    expected = np.zeros(8)
    expected[0] = 1.5
    expected[2] = -0.5
    assert out == pytest.approx(expected, abs=1e-13)


def test_nemytskii_zero_field():
    grid = GridSpec(n_grid=31, n_modes_keep=8)
    a = 0.5
    cubic = NonlinearitySpec("polynomial", poly_coeffs=(0.0, -a, 1.0 + a, -1.0))
    out = nemytskii_modes([0.0], cubic, grid, SPEC, 8)
    assert np.array_equal(out, np.zeros(8))


def test_nemytskii_matches_dense_quadrature():
    # general cubic with even terms exercises the cosine-content projection
    rng = np.random.default_rng(99)
    cubic = NonlinearitySpec("polynomial", poly_coeffs=(0.1, -0.3, 0.8, -1.0))
    grid = GridSpec(n_grid=127, n_modes_keep=24)
    for _ in range(20):
        x = rng.standard_normal(int(rng.integers(1, 9))) * 0.7
        out = nemytskii_modes(x, cubic, grid, SPEC, 24)
        oracle = dense_projection(x, lambda u: 0.1 - 0.3 * u + 0.8 * u**2 - u**3, 24)
        assert np.max(np.abs(out - oracle)) < 1e-8


def test_nemytskii_scaled_domain_matches_dense_quadrature():
    spec2 = OperatorSpec(domain_length=2.0)
    cubic = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 1.0, -0.5, -1.0))
    grid = GridSpec(n_grid=127, n_modes_keep=12)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6)
    out = nemytskii_modes(x, cubic, grid, spec2, 12)
    oracle = dense_projection(x, lambda u: u - 0.5 * u**2 - u**3, 12, L=2.0)
    assert np.max(np.abs(out - oracle)) < 1e-8


def test_nemytskii_dealiasing_exactness():
    # doubling the grid beyond the dealiasing bound leaves the output unchanged
    rng = np.random.default_rng(12)
    x = rng.standard_normal(8)
    cubic = NonlinearitySpec("polynomial", poly_coeffs=(0.2, 0.5, -0.4, -1.0))
    small = GridSpec(n_grid=31, n_modes_keep=8)
    big = GridSpec(n_grid=63, n_modes_keep=8)
    out_small = nemytskii_modes(x, cubic, small, SPEC, 8)
    out_big = nemytskii_modes(x, cubic, big, SPEC, 8)
    assert np.max(np.abs(out_small - out_big)) < 1e-12


def test_nemytskii_dealiasing_violation_raises():
    cubic = ALLEN_CAHN
    grid = GridSpec(n_grid=15, n_modes_keep=8)
    with pytest.raises(ConfigurationError):
        nemytskii_modes(np.ones(8), cubic, grid, SPEC, 8)


def test_nemytskii_batched_rows_match_single():
    rng = np.random.default_rng(8)
    grid = GridSpec(n_grid=63, n_modes_keep=8)
    xs = rng.standard_normal((3, 8))
    batch = nemytskii_modes(xs, ALLEN_CAHN, grid, SPEC, 8)
    for i in range(3):
        single = nemytskii_modes(xs[i], ALLEN_CAHN, grid, SPEC, 8)
        assert np.array_equal(batch[i], single)


def test_burgers_zero():
    grid = GridSpec(n_grid=31, n_modes_keep=8)
    out = burgers_modes(np.zeros(4), grid, SPEC, 8)
    assert np.array_equal(out, np.zeros(8))


def test_burgers_single_mode():
    # v = sqrt(2) sin(pi x): -v v_x = -(pi/sqrt 2) Phi_2
    grid = GridSpec(n_grid=31, n_modes_keep=8)
    out = burgers_modes([1.0], grid, SPEC, 8)
    expected = np.zeros(8)
    expected[1] = -PI / math.sqrt(2)
    assert out == pytest.approx(expected, abs=1e-13)
    assert out[1] == pytest.approx(-2.2214415, abs=1e-7)


def test_burgers_second_mode():
    grid = GridSpec(n_grid=31, n_modes_keep=8)
    out = burgers_modes([0.0, 1.0], grid, SPEC, 8)
    expected = np.zeros(8)
    expected[3] = -2 * PI / math.sqrt(2)
    assert out == pytest.approx(expected, abs=1e-13)


def test_burgers_matches_dense_quadrature():
    rng = np.random.default_rng(17)
    grid = GridSpec(n_grid=127, n_modes_keep=24)
    for _ in range(20):
        x = rng.standard_normal(int(rng.integers(1, 9)))
        out = burgers_modes(x, grid, SPEC, 24)
        oracle = dense_burgers(x, 24)
        assert np.max(np.abs(out - oracle)) < 1e-8


def test_burgers_dealiasing_violation_raises():
    grid = GridSpec(n_grid=15, n_modes_keep=15)
    with pytest.raises(ConfigurationError):
        burgers_modes(np.ones(10), grid, SPEC, 10)


def test_fhn_drift_zero():
    grid = GridSpec(n_grid=31, n_modes_keep=4)
    p = FHNParams(a=0.5, b=0.5, epsilon=0.1)
    f_v, f_w = fhn_drift(np.zeros(4), np.zeros(4), p, grid, SPEC, 4)
    assert np.array_equal(f_v, np.zeros(4))
    assert np.array_equal(f_w, np.zeros(4))


def test_fhn_drift_linear_part():
    grid = GridSpec(n_grid=31, n_modes_keep=1)
    p = FHNParams(a=0.5, b=0.5, epsilon=0.1)
    f_v, f_w = fhn_drift(np.zeros(1), np.array([1.0]), p, grid, SPEC, 1)
    assert f_v == pytest.approx([-1.0], abs=1e-15)
    assert f_w == pytest.approx([-0.05], abs=1e-15)


def test_fhn_drift_cubic_against_dense_quadrature():
    grid = GridSpec(n_grid=31, n_modes_keep=6)
    p = FHNParams(a=0.5, b=0.5, epsilon=0.1)
    f_v, f_w = fhn_drift(np.array([1.0]), np.zeros(6), p, grid, SPEC, 6)
    oracle = dense_projection(
        [1.0], lambda u: -u**3 + 1.5 * u**2 - 0.5 * u, 6
    )
    assert np.max(np.abs(f_v - oracle)) < 1e-8
    expected_w = np.zeros(6)
    expected_w[0] = 0.1
    assert f_w == pytest.approx(expected_w, abs=1e-15)


def test_default_grid_sizes():
    # smallest 2^p - 1 >= degree * n_modes
    g = default_grid(100, 3)
    assert g.n_grid == 511 and g.n_modes_keep == 100
    assert default_grid(32, 3).n_grid == 127
    assert default_grid(32, 2).n_grid == 127  # bound 64 needs 127, not 63
    assert default_grid(51, 5).n_grid == 255  # bound 255 fits exactly
    assert default_grid(52, 5).n_grid == 511
    assert default_grid(8, 0).n_grid == 15


def _random_state(rng, n):
    """Mode vector with the 1/k decay of a smoothed stochastic field."""
    return rng.standard_normal(n) / np.arange(1, n + 1)


@pytest.mark.parametrize("n", [8, 32, 100])
@pytest.mark.parametrize("degree", [2, 3, 5])
def test_nemytskii_grid_invariance(n, degree):
    # the coefficients are exact on every grid meeting the dealiasing bound,
    # so the default grid and the next two larger 2^p - 1 grids agree
    rng = np.random.default_rng(1000 * n + degree)
    coeffs = tuple(rng.standard_normal(degree)) + (-1.0,)
    nl = NonlinearitySpec("polynomial", poly_coeffs=coeffs)
    base = default_grid(n, degree)
    grids = [GridSpec(n_grid=(base.n_grid + 1) * 2**i - 1, n_modes_keep=n)
             for i in range(3)]
    for _ in range(3):
        x = _random_state(rng, n)
        ref = nemytskii_modes(x, nl, grids[0], SPEC, n)
        for grid in grids[1:]:
            out = nemytskii_modes(x, nl, grid, SPEC, n)
            assert np.max(np.abs(out - ref)) <= 1e-12


def reference_nemytskii(x, nl, grid, spec, n_out):
    """The allocating pipeline the plan replaces: padded DST, concatenated
    odd extension, ``polyval``, rfft split, projection."""
    L = spec.domain_length
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m_g = grid.n_grid
    padded = np.pad(x, [(0, 0), (0, m_g - x.shape[-1])])
    u = 0.5 * scipy.fft.dst(padded * math.sqrt(2.0 / L), type=1, axis=-1)
    zero = np.zeros((x.shape[0], 1))
    ext = np.concatenate([zero, u, zero, -u[:, ::-1]], axis=-1)
    w = np.polynomial.polynomial.polyval(ext, np.asarray(nl.poly_coeffs), tensor=False)
    n_freq = min(nl.degree * x.shape[-1], m_g)
    W = scipy.fft.rfft(w, axis=-1)
    a = (2.0 * W.real / w.shape[-1])[:, : n_freq + 1].copy()
    a[:, 0] *= 0.5
    s = (-2.0 * W.imag / w.shape[-1])[:, 1 : n_freq + 1]
    out = np.zeros((x.shape[0], n_out))
    n_s = min(n_out, n_freq)
    out[:, :n_s] = (L / 2.0) * s[:, :n_s]
    out += a @ _cos_to_sine_projection(n_out, n_freq + 1, L).T
    out *= math.sqrt(2.0 / L)
    return out


@pytest.mark.parametrize("m_g", [31, 63, 127])
@pytest.mark.parametrize("L", [1.0, 2.0])
def test_nemytskii_plan_matches_reference_bitwise(m_g, L):
    # same arithmetic in the same order, only without temporaries
    rng = np.random.default_rng(m_g)
    spec = OperatorSpec(domain_length=L)
    for coeffs in [(0.0, 1.0, 0.0, -1.0), (0.1, -0.3, 0.8, -1.0), (0.5, 2.0)]:
        nl = NonlinearitySpec("polynomial", poly_coeffs=coeffs)
        n = m_g // nl.degree
        x = rng.standard_normal((4, n))
        assert np.array_equal(
            nemytskii_modes(x, nl, GridSpec(m_g, n), spec, n),
            reference_nemytskii(x, nl, GridSpec(m_g, n), spec, n),
        )


def test_nemytskii_plan_reuse_matches_fresh_calls():
    rng = np.random.default_rng(21)
    cubic = NonlinearitySpec("polynomial", poly_coeffs=(0.0, -0.5, 1.5, -1.0))
    n = 32
    grid = default_grid(n, 3)
    plan = NemytskiiPlan(cubic, grid, SPEC, 3, n, n)
    for i in range(25):
        x = rng.standard_normal((3, n)) * rng.uniform(0.1, 3.0)
        x[:, rng.integers(1, n + 1):] = 0.0  # vary the populated mode count
        out = plan(x)
        assert np.array_equal(out, nemytskii_modes(x, cubic, grid, SPEC, n))
    # nothing of the previous input survives in the buffers
    assert np.array_equal(plan(np.zeros((3, n))), np.zeros((3, n)))


def test_nemytskii_plan_rejects_other_shapes():
    plan = NemytskiiPlan(ALLEN_CAHN, GridSpec(63, 8), SPEC, 2, 8, 8)
    with pytest.raises(ConfigurationError):
        plan(np.zeros((3, 8)))
    with pytest.raises(ConfigurationError):
        plan(np.zeros((2, 7)))
    with pytest.raises(ConfigurationError):
        NemytskiiPlan(ALLEN_CAHN, GridSpec(15, 8), SPEC, 1, 8, 8)
    with pytest.raises(ConfigurationError):
        NemytskiiPlan(NonlinearitySpec("burgers"), GridSpec(63, 8), SPEC, 1, 8, 8)


def test_nonlinearity_validation():
    with pytest.raises(ConfigurationError):
        NonlinearitySpec("polynomial", poly_coeffs=(1.0,))
    with pytest.raises(ConfigurationError):
        NonlinearitySpec("polynomial", poly_coeffs=(0.0, 1.0, 0.0))
    with pytest.raises(ConfigurationError):
        NonlinearitySpec("nope")
    with pytest.raises(ConfigurationError):
        NonlinearitySpec("none", poly_coeffs=(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        NonlinearitySpec("fhn")
    assert ALLEN_CAHN.degree == 3
    assert ALLEN_CAHN.is_odd_polynomial
