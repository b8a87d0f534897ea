import math

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import simpson

from spde_drift import fields
from spde_drift.errors import ConfigurationError
from spde_drift.fields import (
    ALLEN_CAHN,
    FHNParams,
    GridSpec,
    NemytskiiPlan,
    NonlinearitySpec,
    _cos_to_sine_projection,
    _dst1,
    _plans_grid,
    _tables,
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
    with pytest.raises(ConfigurationError, match="need n_modes_keep <= n_grid"):
        GridSpec(3, 5)


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
@pytest.mark.parametrize("degree", [2, 3, 5, "burgers"])
def test_nemytskii_grid_invariance(n, degree):
    # the coefficients are exact on every grid meeting the dealiasing bound,
    # so the default grid and the next two larger 2^p - 1 grids agree
    if degree == "burgers":
        rng = np.random.default_rng(1000 * n)
        nl = NonlinearitySpec("burgers")
    else:
        rng = np.random.default_rng(1000 * n + degree)
        coeffs = tuple(rng.standard_normal(degree)) + (-1.0,)
        nl = NonlinearitySpec("polynomial", poly_coeffs=coeffs)
    base = default_grid(n, nl.degree)
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


def reference_table_nemytskii(x, nl, grid, spec, n_out):
    """Either stage as tables in allocating steps, one row at a time: the
    cached tables' products around ``polyval`` (u^2 for Burgers)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    burgers = nl.variant == "burgers"
    coeffs = np.asarray((0.0, 0.0, 1.0) if burgers else nl.poly_coeffs)
    to_samples, to_out = _tables(
        nl.is_odd_polynomial, burgers, nl.degree, grid.n_grid, spec.domain_length,
        x.shape[-1], n_out,
    )
    return np.stack([
        np.polynomial.polynomial.polyval(row @ to_samples, coeffs, tensor=False) @ to_out
        for row in x
    ])


def reference_burgers(x, grid, spec, n_out):
    """The three-transform pipeline the plan replaces: u by DST, u_x by a
    DCT-I of the differentiated cosine series, -u u_x back by DST."""
    L = spec.domain_length
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m_g = grid.n_grid
    k = np.arange(1, x.shape[-1] + 1)
    scaled = x * math.sqrt(2.0 / L)
    u = 0.5 * scipy.fft.dst(scaled, type=1, n=m_g, axis=-1)
    y = np.zeros((x.shape[0], m_g + 2))
    y[:, 1 : x.shape[-1] + 1] = 0.5 * scaled * (k * PI / L)
    du = scipy.fft.dct(y, type=1, axis=-1)[:, 1:-1]
    coeffs = math.sqrt(L / 2.0) / (m_g + 1) * scipy.fft.dst(-u * du, type=1, axis=-1)
    return coeffs[:, :n_out]


@pytest.mark.parametrize("n", [8, 32, 100])
@pytest.mark.parametrize("L", [1.0, 2.0])
def test_burgers_plan_matches_reference(n, L):
    # -(u^2)_x / 2 from the squared field's cosine series is the product
    # -u u_x of the reference up to round-off
    rng = np.random.default_rng(n)
    spec = OperatorSpec(domain_length=L)
    grid = default_grid(n, 2)
    for rows in (1, 6):
        x = np.stack([_random_state(rng, n) for _ in range(rows)])
        out = burgers_modes(x, grid, spec, n)
        assert np.max(np.abs(out - reference_burgers(x, grid, spec, n))) <= 1e-12


def reference_odd_nemytskii(x, nl, grid, spec, n_out):
    """The odd stage as allocating steps: padded DST, ``polyval`` on the
    interior points, DST back scaled as in ``grid_to_modes``."""
    L = spec.domain_length
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m_g = grid.n_grid
    padded = np.pad(x, [(0, 0), (0, m_g - x.shape[-1])])
    u = 0.5 * scipy.fft.dst(padded * math.sqrt(2.0 / L), type=1, axis=-1)
    w = np.polynomial.polynomial.polyval(u, np.asarray(nl.poly_coeffs), tensor=False)
    coeffs = math.sqrt(L / 2.0) / (m_g + 1) * scipy.fft.dst(w, type=1, axis=-1)
    out = np.zeros((x.shape[0], n_out))
    n_s = min(n_out, nl.degree * x.shape[-1], m_g)
    out[:, :n_s] = coeffs[:, :n_s]
    return out


@pytest.mark.parametrize("m_g", [31, 63, 127, 255])
@pytest.mark.parametrize("L", [1.0, 2.0])
def test_nemytskii_plan_matches_reference_bitwise(m_g, L):
    # same arithmetic in the same order, only without temporaries: the fft
    # stage's transforms against the FFT pipeline on the sizes that select
    # them (127 and 255 points), its tables against their products on the
    # smaller ones
    rng = np.random.default_rng(m_g)
    spec = OperatorSpec(domain_length=L)
    for coeffs in [(0.1, -0.3, 0.8, -1.0), (0.5, 2.0)]:
        nl = NonlinearitySpec("polynomial", poly_coeffs=coeffs)
        n = m_g // nl.degree
        x = rng.standard_normal((4, n))
        grid = GridSpec(m_g, n)
        plan = NemytskiiPlan(nl, grid, spec, 4, n, n)
        assert (plan.stage, plan.tables) == ("fft", m_g < 127)
        reference = reference_table_nemytskii if plan.tables else reference_nemytskii
        assert np.array_equal(
            nemytskii_modes(x, nl, grid, spec, n), reference(x, nl, grid, spec, n)
        )


FHN_CUBIC = NonlinearitySpec(
    "polynomial", poly_coeffs=FHNParams(a=0.5, b=1.0, epsilon=0.1).cubic_coeffs()
)
QUADRATIC = NonlinearitySpec("polynomial", poly_coeffs=(0.2, 0.5, -1.0))


def table_cases(m_g):
    """(nl, n) of plans on m_g points that take tables: FHN's cubic, a
    quadratic and Burgers on the fft stage, Allen-Cahn on the odd one, each
    at the most modes whose tables fit."""
    K = 2 * (m_g + 1)
    return [(nl, min(m_g // nl.degree, (1 << 13) // K))
            for nl in (FHN_CUBIC, QUADRATIC, NonlinearitySpec("burgers"))
            ] + [(ALLEN_CAHN, min(m_g // 2, (1 << 13) // m_g))]


def closed_form_tables(nl, m_g, L, n_in, n_out):
    """A plan's two tables from their formulas, without a transform.

    Odd stage: mode k is sqrt(2/L) sin(k pi x / L) at the interior points
    x_j = j L / (M_g+1), and a unit sample at x_j has the quadrature
    coefficients (L / (M_g+1)) Phi_k(x_j), zero from min(m n_in, M_g) on.

    fft stage: mode k at the periodic points x_j = 2 L j / N.  A unit sample
    at x_j has the interpolant a_0/2 + sum_l (a_l cos + s_l sin)(l pi x / L)
    with a_l = (2/N) cos(2 pi l j / N), s_l = (2/N) sin(2 pi l j / N),
    l <= n_freq; its sine coefficients are (L/2) s_k plus a_l times the
    integral of cos(l pi x/L) sin(k pi x/L) over [0, L], or for Burgers
    -(w)_x / 2 = sum_l a_l (l pi / 2L) sin."""
    N = 2 * (m_g + 1)
    n_freq = min(nl.degree * n_in, m_g)
    n_s = min(n_out, n_freq)
    odd = nl.is_odd_polynomial
    j = np.arange(1, m_g + 1)[:, None] if odd else np.arange(N)[:, None]

    def wave(fn, k):  # fn(2 pi k j / N), the phase reduced exactly mod N
        return fn(2 * math.pi * ((j * k) % N) / N)

    to_samples = math.sqrt(2 / L) * wave(np.sin, np.arange(1, n_in + 1)).T
    if odd:
        to_out = np.zeros((m_g, n_out))
        to_out[:, :n_s] = L / (m_g + 1) * math.sqrt(2 / L) * wave(np.sin, np.arange(1, n_s + 1))
        return to_samples, to_out
    l = np.arange(n_freq + 1)
    a = 2 / N * wave(np.cos, l)
    a[:, 0] /= 2
    k = np.arange(1, n_out + 1)[:, None]
    sine_norm = math.sqrt(2 / L) * L / 2  # (sin(k pi x / L), Phi_k)
    to_out = np.zeros((N, n_out))
    if nl.variant == "burgers":
        to_out[:, :n_s] = a[:, 1 : n_s + 1] * (k[:n_s, 0] * math.pi / (2 * L)) * sine_norm
        return to_samples, to_out
    to_out[:, :n_s] = 2 / N * wave(np.sin, np.arange(1, n_s + 1)) * sine_norm

    def sine_integral(m):  # integral of sin(m pi x / L) over [0, L]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(m == 0, 0.0, L * (1 - np.cos(math.pi * (m % 2))) / (math.pi * m))

    cos_sin = (sine_integral(k + l) + sine_integral(k - l)) / 2  # product to sum
    to_out += math.sqrt(2 / L) * a @ cos_sin.T
    return to_samples, to_out


@pytest.mark.parametrize("m_g", [31, 63, 127])
@pytest.mark.parametrize("L", [1.0, 2.0])
def test_table_stage_matches_table_reference_bitwise(m_g, L):
    # per-row products over the cached tables, as allocating steps, on both
    # stages; a (16, 6) stack of rows and the observer's (s, trials, 1)
    # stack give each row the bits of its lone call.  The tables themselves
    # match their closed forms to round-off.
    rng = np.random.default_rng(m_g)
    spec = OperatorSpec(domain_length=L)
    for nl, n in table_cases(m_g):
        grid = GridSpec(m_g, n)
        odd = nl.is_odd_polynomial
        tables = _tables(odd, nl.variant == "burgers", nl.degree, m_g, L, n, n)
        for table, closed in zip(tables, closed_form_tables(nl, m_g, L, n, n)):
            assert np.max(np.abs(table - closed)) <= 1e-14 * np.max(np.abs(closed))
        for lead in ((16, 6), (24, 2, 1)):
            plan = NemytskiiPlan(nl, grid, spec, lead, n, n)
            assert (plan.stage, plan.tables) == ("odd" if odd else "fft", True)
            x = rng.standard_normal(lead + (n,)) / np.arange(1, n + 1)
            out = plan(x).reshape(-1, n)
            rows = x.reshape(-1, n)
            assert np.array_equal(out, reference_table_nemytskii(rows, nl, grid, spec, n))
            assert np.array_equal(out[:1], nemytskii_modes(rows[:1], nl, grid, spec, n))


@pytest.mark.parametrize("m_g", [31, 63, 127])
@pytest.mark.parametrize("L", [1.0, 2.0])
def test_table_stage_matches_fft_references(m_g, L):
    # tables and transforms differ in summation order only; the odd stage's
    # reference is its DST pipeline
    rng = np.random.default_rng(m_g)
    spec = OperatorSpec(domain_length=L)
    for nl, n in table_cases(m_g):
        grid = GridSpec(m_g, n)
        x = np.stack([_random_state(rng, n) for _ in range(6)])
        out = nemytskii_modes(x, nl, grid, spec, n)
        if nl.variant == "burgers":
            reference = reference_burgers(x, grid, spec, n)
        elif nl.is_odd_polynomial:
            reference = reference_odd_nemytskii(x, nl, grid, spec, n)
        else:
            reference = reference_nemytskii(x, nl, grid, spec, n)
        assert np.max(np.abs(out - reference)) <= 1e-12


def test_general_stage_is_chosen_by_table_size():
    # the stage and its tables depend on the nonlinearity, n_in, n_out and
    # the grid only, so a trial keeps them, and its bits, in any batch; the
    # bound counts the stage's own samples, 2(M_g+1) or M_g
    def stage(nl, n_in, m_g, lead=1, n_out=None):
        plan = NemytskiiPlan(nl, GridSpec(m_g, n_in), SPEC, lead, n_in, n_out or n_in)
        return plan.stage, plan.tables

    burgers = NonlinearitySpec("burgers")
    for nl in (FHN_CUBIC, QUADRATIC, burgers):
        assert stage(nl, 32, 127, (1, 1)) == stage(nl, 32, 127, (16, 6)) == ("fft", True)
        assert stage(nl, 43, 255, (1, 1)) == stage(nl, 43, 255, (16, 6)) == ("fft", False)
    assert stage(FHN_CUBIC, 32, default_grid(32, 3).n_grid) == ("fft", True)  # FitzHugh-Nagumo
    assert stage(FHN_CUBIC, 33, 127) == ("fft", False)  # 33 * 256 entries
    assert stage(FHN_CUBIC, 8, 127, n_out=40) == ("fft", False)  # a wide output table
    for nl in (ALLEN_CAHN, ODD_QUINTIC):
        for n, m_g in [(4, 31), (32, 127), (32, 255)]:
            assert stage(nl, n, m_g, (1, 1)) == stage(nl, n, m_g, (24, 2, 1)) == ("odd", True)
        for n, m_g in [(33, 255), (100, 511)]:
            assert stage(nl, n, m_g, (1, 1)) == stage(nl, n, m_g, (24, 2, 1)) == ("odd", False)
        assert stage(nl, 8, 127, n_out=64) == ("odd", True)  # 64 * 127 entries
        assert stage(nl, 8, 127, n_out=65) == ("odd", False)  # 65 * 127 entries


@pytest.mark.parametrize("m_g", [31, 63, 127])
@pytest.mark.parametrize("L", [1.0, 2.0])
def test_odd_nemytskii_plan_matches_odd_reference_bitwise(m_g, L, monkeypatch):
    # these sizes take tables; with the bound at 0 the plan runs the DST
    # stage, which keeps the bits of its allocating steps
    rng = np.random.default_rng(m_g)
    spec = OperatorSpec(domain_length=L)
    for n in (m_g // 3, m_g // 2):  # the general and the odd bound
        assert NemytskiiPlan(ALLEN_CAHN, GridSpec(m_g, n), spec, 4, n, n).tables
    monkeypatch.setattr(fields, "_TABLE_ENTRIES", 0)
    for n in (m_g // 3, m_g // 2):
        x = rng.standard_normal((4, n))
        plan = NemytskiiPlan(ALLEN_CAHN, GridSpec(m_g, n), spec, 4, n, n)
        assert (plan.stage, plan.tables) == ("odd", False)
        assert np.array_equal(
            plan(x), reference_odd_nemytskii(x, ALLEN_CAHN, GridSpec(m_g, n), spec, n)
        )


@pytest.mark.parametrize("m_g", [15, 31, 63, 127, 255, 511])
@pytest.mark.parametrize("lead", [(), (1,), (16, 1), (24, 2, 1)], ids=str)
def test_dst1_matches_scipy_fft_dst_bitwise(m_g, lead):
    # the package's one DST call takes another route to pocketfft than
    # scipy.fft.dst; the two must stay the same bits
    x = np.random.default_rng(m_g).standard_normal(lead + (m_g,))
    reference = scipy.fft.dst(x, type=1, axis=-1)
    assert _dst1(x).tobytes() == reference.tobytes()
    y = x.copy()
    assert _dst1(y, overwrite_x=True).tobytes() == reference.tobytes()


ODD_QUINTIC = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.3, 0.0, -1.2, 0.0, 0.5))


@pytest.mark.parametrize("n", [8, 32, 100])
@pytest.mark.parametrize("L", [1.0, 2.0])
@pytest.mark.parametrize("nl", [ALLEN_CAHN, ODD_QUINTIC], ids=["cubic", "quintic"])
def test_odd_stage_matches_general_stage(nl, L, n):
    # the sine-only stage drops cosine coefficients that are exactly zero for
    # odd f, so it agrees with the general pipeline up to round-off, on the
    # odd bound itself and on larger grids
    rng = np.random.default_rng(n)
    spec = OperatorSpec(domain_length=L)
    x = np.stack([_random_state(rng, n) for _ in range(6)])
    general = reference_nemytskii(x, nl, default_grid(n, nl.degree), spec, n)
    bound = (nl.degree * n + n) // 2
    for m_g in (bound, bound + 1, default_grid(n, nl.degree).n_grid, 4 * bound + 3):
        out = nemytskii_modes(x, nl, GridSpec(m_g, n), spec, n)
        assert np.max(np.abs(out - general)) <= 1e-12


@pytest.mark.parametrize("n_in, n_out", [(8, 8), (100, 100), (10, 4), (5, 40)])
@pytest.mark.parametrize("nl", [ALLEN_CAHN, ODD_QUINTIC], ids=["cubic", "quintic"])
def test_odd_dealiasing_bound(nl, n_in, n_out):
    # an odd f needs max(n_in, (m n_in + n_out) // 2) points; a general one
    # keeps m max(n_in, n_out)
    bound = max(n_in, (nl.degree * n_in + n_out) // 2)
    with pytest.raises(ConfigurationError, match="dealiasing violated"):
        NemytskiiPlan(nl, GridSpec(bound - 1, n_in), SPEC, 1, n_in, n_out)
    NemytskiiPlan(nl, GridSpec(bound, n_in), SPEC, 1, n_in, n_out)
    skewed = NonlinearitySpec("polynomial", poly_coeffs=(1.0,) + nl.poly_coeffs[1:])
    if nl.degree * max(n_in, n_out) > bound:
        with pytest.raises(ConfigurationError, match="dealiasing violated"):
            NemytskiiPlan(skewed, GridSpec(bound, n_in), SPEC, 1, n_in, n_out)


def test_plan_grid_is_odd_only_for_an_odd_polynomial():
    quadratic = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 0.5, -1.0))
    fhn_cubic = NonlinearitySpec(
        "polynomial", poly_coeffs=FHNParams(a=0.5, b=1.0, epsilon=0.1).cubic_coeffs()
    )
    assert _plans_grid(ALLEN_CAHN, 100).n_grid == 255  # bound 200
    assert _plans_grid(ALLEN_CAHN, 32).n_grid == 127  # bound 64
    assert _plans_grid(ODD_QUINTIC, 100).n_grid == 511  # bound 300
    for nl in (quadratic, fhn_cubic, NonlinearitySpec("burgers")):
        assert _plans_grid(nl, 100) == default_grid(100, nl.degree)


def test_nemytskii_plan_reuse_matches_fresh_calls():
    # both stages with and without tables: the fft stage's tables (a cubic
    # and Burgers at 32 modes) and transforms (the cubic at 43 modes), the
    # odd stage's DSTs (Allen-Cahn on its plan grid) and tables (4 modes to
    # 20 coefficients, whose columns from 3 n_in up stay zero)
    rng = np.random.default_rng(21)
    cubic = NonlinearitySpec("polynomial", poly_coeffs=(0.0, -0.5, 1.5, -1.0))
    cases = [
        (cubic, default_grid(32, 3), 32, 32, ("fft", True)),
        (NonlinearitySpec("burgers"), default_grid(32, 3), 32, 32, ("fft", True)),
        (ALLEN_CAHN, _plans_grid(ALLEN_CAHN, 100), 100, 100, ("odd", False)),
        (cubic, GridSpec(255, 43), 43, 43, ("fft", False)),
        (ALLEN_CAHN, GridSpec(31, 4), 4, 20, ("odd", True)),
    ]
    for nl, grid, n, n_out, stage in cases:
        plan = NemytskiiPlan(nl, grid, SPEC, 3, n, n_out)
        assert (plan.stage, plan.tables) == stage
        for i in range(25):
            x = rng.standard_normal((3, n)) * rng.uniform(0.1, 3.0)
            x[:, rng.integers(1, n + 1):] = 0.0  # vary the populated mode count
            out = plan(x)
            assert np.array_equal(out, nemytskii_modes(x, nl, grid, SPEC, n_out))
            if plan.stage == "odd":
                assert np.array_equal(out[:, 3 * n:], np.zeros((3, max(n_out - 3 * n, 0))))
        # nothing of the previous input survives in the buffers
        assert np.array_equal(plan(np.zeros((3, n))), np.zeros((3, n_out)))


def test_nemytskii_plan_rejects_other_shapes():
    plan = NemytskiiPlan(ALLEN_CAHN, GridSpec(63, 8), SPEC, 2, 8, 8)
    with pytest.raises(ConfigurationError):
        plan(np.zeros((3, 8)))
    with pytest.raises(ConfigurationError):
        plan(np.zeros((2, 7)))
    with pytest.raises(ConfigurationError):
        NemytskiiPlan(ALLEN_CAHN, GridSpec(15, 8), SPEC, 1, 8, 8)
    fhn = NonlinearitySpec("fhn", fhn_params=FHNParams(a=0.5, b=0.5, epsilon=0.1))
    for nl in (NonlinearitySpec("none"), fhn):
        with pytest.raises(ConfigurationError):
            NemytskiiPlan(nl, GridSpec(63, 8), SPEC, 1, 8, 8)


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
    with pytest.raises(ConfigurationError, match="fhn_params only valid for variant='fhn'"):
        NonlinearitySpec("polynomial", poly_coeffs=(0.0, 1.0),
                         fhn_params=FHNParams(a=0.5, b=0.5, epsilon=0.1))
    assert ALLEN_CAHN.degree == 3
    assert ALLEN_CAHN.is_odd_polynomial
