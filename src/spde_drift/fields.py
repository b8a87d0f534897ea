"""Pseudospectral evaluation of nonlinear drift terms in sine-mode space.

The field basis is fixed to Phi_k(x) = sqrt(2/L) sin(k pi x / L) on [0, L],
sampled at the interior collocation points x_j = j L / (M_g + 1), j = 1..M_g.
Transforms are type-I DST/DCT pairs; products of trigonometric polynomials of
sine-degree <= M_g are represented without error on this grid.

Polynomial composition f(u) generally produces cosine content (even powers of
a sine polynomial are cosine polynomials), which is not orthogonal to the sine
basis on [0, L].  ``nemytskii_modes`` therefore splits f(u) exactly into its
sine and cosine parts on the odd-extended periodic grid and projects the
cosine part onto the sine modes in closed form, so the returned coefficients
are the exact inner products (f(u), Phi_k) up to round-off.

A polynomial of degree m applied to n modes has sine-degree m * n, so any grid
with M_g >= m * n gives the same coefficients up to round-off.
``default_grid`` takes the smallest such M_g of the form 2^p - 1, which puts
every transform on a power-of-two FFT length.  Step loops evaluate f through a
``NemytskiiPlan`` built once per trajectory; ``nemytskii_modes`` is the
one-shot form of the same kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import ConfigurationError
from .spectrum import OperatorSpec


@dataclass(frozen=True)
class FHNParams:
    """Parameters of the coupled activator/recovery system.

    The activator drift is v(1-v)(v-a) - w, the recovery drift eps*(v - b w).
    ``sigma`` scales the activator noise, ``sigma_w``/``gamma_w`` give the
    recovery equation a small smooth noise of its own.
    """

    a: float
    b: float
    epsilon: float
    sigma: float = 1.0
    sigma_w: float = 0.05
    gamma_w: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ConfigurationError("fhn parameter a must lie in (0, 1)")
        if self.b < 0:
            raise ConfigurationError("fhn parameter b must be nonnegative")
        if self.epsilon < 0:
            # epsilon = 0 decouples the recovery equation, a useful limit
            raise ConfigurationError("fhn parameter epsilon must be nonnegative")
        if self.sigma < 0 or self.sigma_w < 0:
            raise ConfigurationError("fhn noise amplitudes must be nonnegative")
        if self.gamma_w < 0:
            raise ConfigurationError("fhn parameter gamma_w must be nonnegative")

    def cubic_coeffs(self) -> tuple[float, ...]:
        """Ascending coefficients of v(1-v)(v-a) = -a v + (1+a) v^2 - v^3."""
        return (0.0, -self.a, 1.0 + self.a, -1.0)


VARIANTS = ("none", "polynomial", "burgers", "fhn")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Drift nonlinearity F: none, a polynomial Nemytskii operator f(u),
    the transport term -u u_x, or the coupled activator/recovery drift."""

    variant: str = "none"
    poly_coeffs: tuple[float, ...] | None = None
    fhn_params: FHNParams | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown nonlinearity variant {self.variant!r}"
            )
        if self.variant == "polynomial":
            if self.poly_coeffs is None or len(self.poly_coeffs) < 2:
                raise ConfigurationError(
                    "polynomial nonlinearity needs coefficients c_0..c_m, m >= 1"
                )
            if self.poly_coeffs[-1] == 0:
                raise ConfigurationError(
                    "polynomial leading coefficient must be nonzero"
                )
            object.__setattr__(self, "poly_coeffs", tuple(float(c) for c in self.poly_coeffs))
        elif self.poly_coeffs is not None:
            raise ConfigurationError("poly_coeffs only valid for variant='polynomial'")
        if self.variant == "fhn":
            if self.fhn_params is None:
                raise ConfigurationError("fhn nonlinearity needs fhn_params")
        elif self.fhn_params is not None:
            raise ConfigurationError("fhn_params only valid for variant='fhn'")

    @property
    def degree(self) -> int:
        """Polynomial degree governing the dealiasing requirement."""
        if self.variant == "none":
            return 1
        if self.variant == "polynomial":
            return len(self.poly_coeffs) - 1
        if self.variant == "burgers":
            return 2
        return 3  # fhn activator drift is cubic

    @property
    def is_odd_polynomial(self) -> bool:
        return self.variant == "polynomial" and all(
            c == 0.0 for c in self.poly_coeffs[0::2]
        )


NONE = NonlinearitySpec("none")

ALLEN_CAHN = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 1.0, 0.0, -1.0))


@dataclass(frozen=True)
class GridSpec:
    """Interior collocation grid: M_g points, keeping n_modes_keep modes."""

    n_grid: int
    n_modes_keep: int

    def __post_init__(self):
        if self.n_grid < 1:
            raise ConfigurationError("n_grid must be >= 1")
        if not (1 <= self.n_modes_keep <= self.n_grid):
            raise ConfigurationError("need 1 <= n_modes_keep <= n_grid")


def default_grid(n_modes: int, degree: int) -> GridSpec:
    """Smallest grid of size 2^p - 1 that meets the dealiasing bound
    degree * n_modes, so transforms land on power-of-two FFT lengths
    (511 points for 100 cubic modes, 127 for 32)."""
    bound = max(degree, 1) * n_modes
    return GridSpec(n_grid=(1 << bound.bit_length()) - 1, n_modes_keep=n_modes)


def _check_dealiasing(n_in: int, degree: int, grid: GridSpec, n_out: int):
    bound = degree * max(n_in, n_out)
    if grid.n_grid < bound:
        raise ConfigurationError(
            f"dealiasing violated: n_grid={grid.n_grid} < degree*max(modes)={bound}"
        )


def _check_mode_count(n_modes: int, grid: GridSpec):
    if n_modes > grid.n_grid:
        raise ConfigurationError(
            f"more modes ({n_modes}) than grid points ({grid.n_grid})"
        )


def _fit_modes(x: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad or truncate mode coefficients (last axis) to length n."""
    if x.shape[-1] >= n:
        return x[..., :n]
    pad = [(0, 0)] * (x.ndim - 1) + [(0, n - x.shape[-1])]
    return np.pad(x, pad)


def modes_to_grid(x, grid: GridSpec, spec: OperatorSpec) -> np.ndarray:
    """Field values u(x_j) = sum_k x^k Phi_k(x_j) at the interior points.

    Implemented as a type-I DST; exact for any coefficient vector with at
    most n_grid modes.  Batched input is transformed along the last axis.
    """
    arr = np.asarray(x, dtype=np.float64)
    _check_mode_count(arr.shape[-1], grid)
    L = spec.domain_length
    scaled = arr * math.sqrt(2.0 / L)
    return 0.5 * scipy.fft.dst(scaled, type=1, n=grid.n_grid, axis=-1)


def grid_to_modes(u, grid: GridSpec, spec: OperatorSpec) -> np.ndarray:
    """First n_modes_keep coefficients (u, Phi_k) by exact DST quadrature.

    Exact inverse of ``modes_to_grid`` on its range.
    """
    arr = np.asarray(u, dtype=np.float64)
    if arr.shape[-1] != grid.n_grid:
        raise ConfigurationError(
            f"grid size mismatch: expected {grid.n_grid} values, got {arr.shape[-1]}"
        )
    L = spec.domain_length
    scale = math.sqrt(L / 2.0) / (grid.n_grid + 1)
    coeffs = scale * scipy.fft.dst(arr, type=1, axis=-1)
    return coeffs[..., : grid.n_modes_keep]


def _cosine_eval(a, grid: GridSpec) -> np.ndarray:
    """Evaluate sum_k a_k cos(k pi x_j / L) at the interior points via DCT-I."""
    arr = np.asarray(a, dtype=np.float64)
    _check_mode_count(arr.shape[-1], grid)
    y = np.zeros(arr.shape[:-1] + (grid.n_grid + 2,))
    y[..., 1 : arr.shape[-1] + 1] = 0.5 * arr
    return scipy.fft.dct(y, type=1, axis=-1)[..., 1:-1]


@functools.lru_cache(maxsize=32)
def _cos_to_sine_projection(n_out: int, n_cos: int, L: float) -> np.ndarray:
    """Matrix P with P[k-1, l] = integral_0^L cos(l pi x/L) sin(k pi x/L) dx.

    Row k covers the constant (l = 0) through cos frequency n_cos - 1; the
    integral vanishes for k + l even and equals L (1-(-1)^{k+l}) k /
    (pi (k^2 - l^2)) otherwise.
    """
    k = np.arange(1, n_out + 1, dtype=np.float64)[:, None]
    l = np.arange(0, n_cos, dtype=np.float64)[None, :]
    parity = 1.0 - (-1.0) ** (k + l)
    denom = k * k - l * l
    with np.errstate(divide="ignore", invalid="ignore"):
        out = L * parity * k / (math.pi * denom)
    out[denom == 0] = 0.0
    out.setflags(write=False)  # shared by every caller through the cache
    return out


class NemytskiiPlan:
    """Reusable workspace for the exact sine-mode coefficients of f(u).

    Built once for a batch of ``n_rows`` states with ``n_in`` modes each: the
    dealiasing check, the zero-padded mode buffer, the odd-extension and
    polynomial buffers and the cosine->sine projection are set up here, so a
    call allocates only the outputs of the two transforms.

    A call maps an (n_rows, n_in) array to (n_rows, n_out) coefficients:
    type-I DST to the grid, odd extension to the periodic grid of 2(M_g+1)
    points, Horner evaluation in ``polyval``'s operation order, rfft split
    into sine and cosine parts, and closed-form projection of the cosine part
    onto the sine modes.  The returned array belongs to the plan and is
    overwritten by its next call; a plan must not be shared between
    concurrent callers.
    """

    def __init__(
        self,
        nl: NonlinearitySpec,
        grid: GridSpec,
        spec: OperatorSpec,
        n_rows: int,
        n_in: int,
        n_out: int,
    ):
        if nl.variant != "polynomial":
            raise ConfigurationError(
                f"nemytskii_modes needs a polynomial nonlinearity, got {nl.variant!r}"
            )
        degree = nl.degree
        _check_dealiasing(n_in, degree, grid, n_out)
        m_g = grid.n_grid
        L = spec.domain_length
        n_freq = min(degree * n_in, m_g)
        self.shape = (n_rows, n_in)
        self._coeffs = nl.poly_coeffs
        self._L = L
        self._n_s = min(n_out, n_freq)
        # 0.5 * DST(x sqrt(2/L)) with the exact factor 0.5 folded into the scale
        self._in_scale = 0.5 * math.sqrt(2.0 / L)
        self._modes = np.zeros((n_rows, m_g))
        self._ext = np.zeros((n_rows, 2 * (m_g + 1)))
        self._poly = np.empty_like(self._ext)
        self._cos = np.empty((n_rows, n_freq + 1))
        self._proj_t = _cos_to_sine_projection(n_out, n_freq + 1, L).T
        self._out = np.empty((n_rows, n_out))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.shape:
            raise ConfigurationError(
                f"batch shape {x.shape} does not match the plan's {self.shape}"
            )
        m_g = self._modes.shape[-1]
        np.multiply(x, self._in_scale, out=self._modes[:, : x.shape[-1]])
        u = scipy.fft.dst(self._modes, type=1, axis=-1)

        # periodic samples over [0, 2L): [0, u_1..u_M, 0, -u_M..-u_1]
        ext = self._ext
        ext[:, 1 : m_g + 1] = u
        np.negative(u[:, ::-1], out=ext[:, m_g + 2 :])

        c = self._coeffs
        w = self._poly
        np.multiply(ext, c[-1], out=w)
        w += c[-2]
        for coeff in c[-3::-1]:
            w *= ext
            w += coeff

        # w = a_0/2 + sum_l (a_l cos + s_l sin); a indexed from l = 0 with the
        # 1/2 folded in, s from l = 1, both truncated at n_freq
        n_points = ext.shape[-1]
        spectrum = scipy.fft.rfft(w, axis=-1, overwrite_x=True)
        a = self._cos
        np.multiply(spectrum.real[:, : a.shape[-1]], 2.0, out=a)
        a /= n_points
        a[:, 0] *= 0.5

        n_s = self._n_s
        out = self._out
        s = out[:, :n_s]
        np.multiply(spectrum.imag[:, 1 : n_s + 1], -2.0, out=s)
        s /= n_points
        s *= self._L / 2.0
        out[:, n_s:] = 0.0
        out += a @ self._proj_t
        out *= math.sqrt(2.0 / self._L)
        return out


def nemytskii_modes(
    x,
    nl: NonlinearitySpec,
    grid: GridSpec,
    spec: OperatorSpec,
    n_out: int,
) -> np.ndarray:
    """Exact sine-mode coefficients of the composition f(u).

    ``x`` may be batched (modes on the last axis); the result has the same
    leading shape with n_out coefficients.  Raises a configuration error when
    the grid is too small to resolve the product of degree m_F * max(modes).
    A one-shot ``NemytskiiPlan``; loops that evaluate f every step keep a plan.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    rows = arr.reshape(-1, arr.shape[-1])
    plan = NemytskiiPlan(nl, grid, spec, rows.shape[0], rows.shape[1], n_out)
    return plan(rows).reshape(arr.shape[:-1] + (n_out,))


def burgers_modes(x, grid: GridSpec, spec: OperatorSpec, n_out: int) -> np.ndarray:
    """Sine-mode coefficients of the transport term -v v_x.

    v comes from the DST of the modes, v_x from the exact cosine series of the
    sine expansion; their pointwise product is a pure sine polynomial of twice
    the degree, so the DST back is exact under the dealiasing bound.
    """
    arr = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _check_dealiasing(arr.shape[-1], 2, grid, n_out)
    L = spec.domain_length
    k = np.arange(1, arr.shape[-1] + 1, dtype=np.float64)
    v = modes_to_grid(arr, grid, spec)
    dv = _cosine_eval(arr * math.sqrt(2.0 / L) * (k * math.pi / L), grid)
    scale = math.sqrt(L / 2.0) / (grid.n_grid + 1)
    coeffs = scale * scipy.fft.dst(-v * dv, type=1, axis=-1)
    res = coeffs[..., :n_out]
    return res if np.asarray(x).ndim > 1 else res[0]


def fhn_drift(
    v,
    w,
    p: FHNParams,
    grid: GridSpec,
    spec: OperatorSpec,
    n_out: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Mode coefficients of the coupled drift.

    F_v = [v(1-v)(v-a)]_modes - w and F_w = epsilon (v - b w), both mode-wise
    on the first n_out modes.
    """
    cubic = NonlinearitySpec("polynomial", poly_coeffs=p.cubic_coeffs())
    v_arr = np.asarray(v, dtype=np.float64)
    w_arr = np.asarray(w, dtype=np.float64)
    f_v = nemytskii_modes(v_arr, cubic, grid, spec, n_out)
    w_fit = _fit_modes(w_arr, n_out)
    v_fit = _fit_modes(v_arr, n_out)
    return f_v - w_fit, p.epsilon * (v_fit - p.b * w_fit)
