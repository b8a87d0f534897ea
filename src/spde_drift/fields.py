"""Pseudospectral evaluation of nonlinear drift terms in sine-mode space.

The field basis is fixed to Phi_k(x) = sqrt(2/L) sin(k pi x / L) on [0, L],
sampled at the interior collocation points x_j = j L / (M_g + 1), j = 1..M_g.
Modes go to the grid by a type-I DST; products of trigonometric polynomials
of sine-degree <= M_g are represented without error on this grid.

Polynomial composition f(u) generally produces cosine content (even powers of
a sine polynomial are cosine polynomials), which is not orthogonal to the sine
basis on [0, L].  ``nemytskii_modes`` therefore splits f(u) exactly into its
sine and cosine parts on the odd-extended periodic grid and projects the
cosine part onto the sine modes in closed form, so the returned coefficients
are the exact inner products (f(u), Phi_k) up to round-off.

The Burgers transport term is the same kernel: -u u_x = -(u^2)_x / 2, and
u^2 is the cosine series sum_l a_l cos(l pi x / L).  Since u vanishes at both
ends, integration by parts gives (-(u^2)_x / 2, Phi_k) = (k pi / 4) sqrt(2/L)
a_k, so squaring the field and scaling its cosine coefficients is exact.

An odd polynomial maps the odd extension of u to an odd function, so f(u)
is a pure sine series with no cosine part to project.  ``NemytskiiPlan``
evaluates every drift as modes to samples, f at the samples, and samples to
sine coefficients; its docstring names the two stages that supply the two
linear maps, and the sizes at which either stage applies them as
precomputed tables instead of transforms (J. P. Boyd, *Chebyshev and Fourier
Spectral Methods*, 2nd ed., 2001).  Every type-I DST of the module goes
through ``_dst1``.

Dealiasing: a polynomial of degree m applied to n_in modes has sine-degree
m * n_in.  The general stage, whose periodic grid has 2(M_g+1) points, is
exact for the first n_out coefficients when M_g >= m * max(n_in, n_out).
The odd stage's DST-I folds frequency l in (M_g+1, 2(M_g+1)) onto mode
2(M_g+1) - l, so it is exact when M_g >= floor((m * n_in + n_out) / 2), and
at least n_in to hold the input.  ``default_grid`` takes the smallest M_g of
the form 2^p - 1 meeting the general bound, which puts every transform on a
power-of-two FFT length; a plan of an odd polynomial takes the smallest such
grid meeting the odd bound (255 points for 100 cubic modes, against 511).
Step loops evaluate f through a ``NemytskiiPlan`` built once per batch of
trajectories; ``nemytskii_modes`` and ``burgers_modes`` are one-shot forms of
the same kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.fftpack

from .errors import ConfigurationError, check_fields, spec_field
from .spectrum import OperatorSpec


@dataclass(frozen=True)
class FHNParams:
    """Parameters of the coupled activator/recovery system.

    The activator drift is v(1-v)(v-a) - w, the recovery drift eps*(v - b w).
    ``sigma`` scales the activator noise, ``sigma_w``/``gamma_w`` give the
    recovery equation a small smooth noise of its own.
    """

    a: float = spec_field("unit")
    b: float = spec_field("nonnegative")
    # epsilon = 0 decouples the recovery equation, a useful limit
    epsilon: float = spec_field("nonnegative")
    sigma: float = spec_field("nonnegative", 1.0)
    sigma_w: float = spec_field("nonnegative", 0.05)
    gamma_w: float = spec_field("nonnegative", 1.0)

    def __post_init__(self):
        check_fields(self)

    def cubic_coeffs(self) -> tuple[float, ...]:
        """Ascending coefficients of v(1-v)(v-a) = -a v + (1+a) v^2 - v^3."""
        return (0.0, -self.a, 1.0 + self.a, -1.0)

    def coupled_drift(self, f_v, v, w, out) -> np.ndarray:
        """Write F_v = f_v - w and F_w = eps (v - b w) into ``out[0]`` and
        ``out[1]``, where f_v holds the modes of v(1-v)(v-a)."""
        np.subtract(f_v, w, out=out[0])
        np.multiply(self.b, w, out=out[1])
        np.subtract(v, out[1], out=out[1])
        out[1] *= self.epsilon
        return out


VARIANTS = ("none", "polynomial", "burgers", "fhn")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Drift nonlinearity F: none, a polynomial Nemytskii operator f(u),
    the transport term -u u_x, or the coupled activator/recovery drift."""

    variant: str = "none"
    poly_coeffs: tuple[float, ...] | None = spec_field(("finite",), None)
    fhn_params: FHNParams | None = None

    def __post_init__(self):
        check_fields(self)
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


ALLEN_CAHN = NonlinearitySpec("polynomial", poly_coeffs=(0.0, 1.0, 0.0, -1.0))


@dataclass(frozen=True)
class GridSpec:
    """Interior collocation grid: M_g points, keeping n_modes_keep modes."""

    n_grid: int = spec_field("count")
    n_modes_keep: int = spec_field("count")

    def __post_init__(self):
        check_fields(self)
        if self.n_modes_keep > self.n_grid:
            raise ConfigurationError("need n_modes_keep <= n_grid")


def _dealiasing_bound(degree: int, n_in: int, n_out: int, odd: bool = False) -> int:
    """Fewest interior points for which a plan of this degree and parity
    gives the first n_out coefficients of f applied to n_in modes exactly."""
    if odd:
        return max(n_in, (degree * n_in + n_out) // 2)
    return degree * max(n_in, n_out)


def _pow2_grid(bound: int, n_modes: int) -> GridSpec:
    """Smallest grid of size 2^p - 1 >= bound."""
    return GridSpec(n_grid=(1 << bound.bit_length()) - 1, n_modes_keep=n_modes)


def default_grid(n_modes: int, degree: int) -> GridSpec:
    """Smallest grid of size 2^p - 1 that meets the general dealiasing bound
    degree * n_modes, so transforms land on power-of-two FFT lengths
    (511 points for 100 cubic modes, 127 for 32)."""
    return _pow2_grid(_dealiasing_bound(max(degree, 1), n_modes, n_modes), n_modes)


def _plans_grid(nl: NonlinearitySpec, n_modes: int) -> GridSpec:
    """Smallest 2^p - 1 grid for a plan of ``nl`` on n_modes modes: the odd
    bound for an odd polynomial, else the general one of ``default_grid``."""
    bound = _dealiasing_bound(nl.degree, n_modes, n_modes, nl.is_odd_polynomial)
    return _pow2_grid(bound, n_modes)


def _check_dealiasing(nl: NonlinearitySpec, grid: GridSpec, n_in: int, n_out: int):
    odd = nl.is_odd_polynomial
    bound = _dealiasing_bound(nl.degree, n_in, n_out, odd)
    if grid.n_grid < bound:
        rule = ("max(n_in, (degree*n_in + n_out) // 2)" if odd
                else "degree*max(n_in, n_out)")
        raise ConfigurationError(
            f"dealiasing violated: n_grid={grid.n_grid} < {rule}={bound}"
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


def _dst1(x: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Type-I DST along the last axis, the package's only DST call: the
    pocketfft kernel and bits of ``scipy.fft.dst``, without its per-call
    backend dispatch (several microseconds)."""
    return scipy.fftpack.dst(x, type=1, axis=-1, overwrite_x=overwrite_x)


def _interior(x, L: float, padded: np.ndarray) -> np.ndarray:
    """The field at the interior points, 0.5 DST-I(x sqrt(2/L)) with the
    exact 0.5 folded into the scale.  ``x`` is written into the first
    columns of ``padded``, shaped like x with one column per interior point,
    whose other columns must be zero."""
    np.multiply(x, 0.5 * math.sqrt(2.0 / L), out=padded[..., : x.shape[-1]])
    return _dst1(padded)


def modes_to_grid(x, grid: GridSpec, spec: OperatorSpec) -> np.ndarray:
    """Field values u(x_j) = sum_k x^k Phi_k(x_j) at the interior points.

    Implemented as a type-I DST; exact for any coefficient vector with at
    most n_grid modes.  Batched input is transformed along the last axis.
    """
    arr = np.asarray(x, dtype=np.float64)
    _check_mode_count(arr.shape[-1], grid)
    return _interior(arr, spec.domain_length, np.zeros(arr.shape[:-1] + (grid.n_grid,)))


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
    coeffs = scale * _dst1(arr)
    return coeffs[..., : grid.n_modes_keep]


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


#: a plan multiplies by two tables instead of running transforms when
#: max(n_in, n_out) times its stage's sample count is at most this many
#: entries (64 KiB a table).  From direct plan-call timings on a 2-core host:
#: general plans at 16 trials of 3 and 6 rows lost with tables at 43 modes on
#: 255 points and at 63 on 127.  Odd plans of a cubic, n_in = n_out: at 1-2
#: rows the tables took 0.35-0.58 of the DST time at every size up to 2^14
#: entries; at 48 rows 0.22-0.64 up to 2^13, except on 127 points, where
#: they took 0.83-0.85 at 48 modes and 1.12-1.14 at 63 (8001 entries).  A
#: benchmark's odd plans stay at 32 modes and below (4064 entries, 0.5) or
#: at 100 (25,500 entries, the DST).
_TABLE_ENTRIES = 1 << 13


class NemytskiiPlan:
    """Reusable workspace for the exact sine-mode coefficients of a scalar
    drift: a polynomial f(u) or the Burgers transport term -u u_x.

    Built once for a batch of ``n_rows`` states with ``n_in`` modes each: the
    dealiasing check, the choice of stage and every buffer of that stage are
    set up here, so a call allocates at most the outputs of its transforms.
    ``n_rows`` may also be a shape such as (trials, rows) for a stack of
    batches.  ``stage`` names the chosen stage and ``tables`` says whether
    its maps are applied as tables; both depend on the nonlinearity, n_in,
    n_out and the grid, never on the rows.

    A call maps an (n_rows, n_in) array to (n_rows, n_out) coefficients in
    three steps: a linear map from the modes to samples of the field, f at
    the samples by Horner's rule in ``polyval``'s operation order (u^2 for
    Burgers), and a linear map from the samples to sine coefficients.  The
    stage picks the two maps:

    - ``odd``, for an odd polynomial (``NonlinearitySpec.is_odd_polynomial``):
      f(u) is a pure sine series, so the samples are the M_g interior points,
      by type-I DST, and one type-I DST scaled as in ``grid_to_modes`` takes
      f(u) back (Boyd, ch. 8).  The grid must hold
      max(n_in, floor((m n_in + n_out) / 2)) points.
    - ``fft``: the samples are the odd extension on the periodic grid of
      2(M_g+1) points, with M_g >= m max(n_in, n_out); an rfft splits f(u)
      into sine and cosine parts and the cosine part is projected onto the
      sine modes in closed form.  Burgers takes -(u^2)_x / 2 instead, which
      maps the cosine coefficient a_k to (k pi / 4) sqrt(2/L) a_k; the sine
      part of the even u^2 is zero.  The projection is one matrix product per
      batch of the stack, with that batch's own shape, so a batch gets the
      same bits whatever is stacked with it.

    Either stage's two maps become precomputed tables, the stage applied to
    the identity, when max(n_in, n_out) times the stage's sample count (M_g
    or 2(M_g+1)) is at most ``_TABLE_ENTRIES`` (the matrix-multiplication
    transform, which beats the FFT at small sizes: Boyd, ch. 10).  A call is
    then one product per row, so each row has the bits of its lone call.

    Coefficients above min(m n_in, M_g) are zero for an odd polynomial and
    for Burgers; the cosine part of any other polynomial projects onto every
    sine mode.

    The returned array belongs to the plan and is overwritten by its next
    call; a plan must not be shared between concurrent callers.
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
        if nl.variant not in ("polynomial", "burgers"):
            raise ConfigurationError(
                f"NemytskiiPlan needs a polynomial or burgers nonlinearity, "
                f"got {nl.variant!r}"
            )
        burgers = nl.variant == "burgers"
        _check_dealiasing(nl, grid, n_in, n_out)
        m_g = grid.n_grid
        lead = (n_rows,) if np.ndim(n_rows) == 0 else tuple(n_rows)
        self.shape = lead + (n_in,)
        self._coeffs = (0.0, 0.0, 1.0) if burgers else nl.poly_coeffs
        odd = nl.is_odd_polynomial
        self.stage = "odd" if odd else "fft"
        build, n_samples = _stage(odd, m_g)
        self.tables = max(n_in, n_out) * n_samples <= _TABLE_ENTRIES
        if self.tables:
            build = functools.partial(_table_stage, odd)
        self._samples, self._poly, self._coefficients = build(
            burgers, nl.degree, m_g, spec.domain_length, lead, n_in, n_out
        )

    def _horner(self, u) -> np.ndarray:
        """f(u) into the polynomial buffer, in ``polyval``'s operation order."""
        c = self._coeffs
        w = self._poly
        np.multiply(u, c[-1], out=w)
        w += c[-2]
        for coeff in c[-3::-1]:
            w *= u
            w += coeff
        return w

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.shape:
            raise ConfigurationError(
                f"batch shape {x.shape} does not match the plan's {self.shape}"
            )
        return self._coefficients(self._horner(self._samples(x)))


# Each stage builder returns a plan's samples map, its Horner buffer and its
# coefficients map, with every buffer shaped like the batch stack ``lead``.

def _odd_stage(burgers, degree, m_g, L, lead, n_in, n_out):
    """Samples at the M_g interior points; f(u) back by DST as
    ``grid_to_modes``."""
    n_s = min(n_out, degree * n_in, m_g)
    modes = np.zeros(lead + (m_g,))
    out = np.zeros(lead + (n_out,))  # only the first n_s columns are written
    scale = math.sqrt(L / 2.0) / (m_g + 1)

    def coefficients(w):
        c = _dst1(w, overwrite_x=True)
        np.multiply(c[..., :n_s], scale, out=out[..., :n_s])
        return out

    return lambda x: _interior(x, L, modes), np.empty_like(modes), coefficients


def _fft_stage(burgers, degree, m_g, L, lead, n_in, n_out):
    """Samples of the odd extension on the periodic grid; sine coefficients
    by rfft and closed-form projection of the cosine part, or for Burgers
    the cosine part differentiated."""
    n_freq = min(degree * n_in, m_g)
    n_s = min(n_out, n_freq)
    n_points = 2 * (m_g + 1)
    modes = np.zeros(lead + (m_g,))
    ext = np.zeros(lead + (n_points,))
    a = np.empty(lead + (n_freq + 1,))
    out = np.empty(lead + (n_out,))
    if burgers:  # (-(u^2)_x / 2, Phi_k) = (k pi / 4) sqrt(2/L) a_k
        deriv = np.arange(1, n_s + 1) * (math.pi / 4 * math.sqrt(2 / L))
    else:
        proj_t = _cos_to_sine_projection(n_out, n_freq + 1, L).T

    def samples(x):
        """[0, u_1..u_M, 0, -u_M..-u_1] over [0, 2L)."""
        u = _interior(x, L, modes)
        ext[..., 1 : m_g + 1] = u
        np.negative(u[..., ::-1], out=ext[..., m_g + 2 :])
        return ext

    def coefficients(w):
        """Sine coefficients of the periodic samples w (overwritten)."""
        out[..., n_s:] = 0.0
        # w = a_0/2 + sum_l (a_l cos + s_l sin); a indexed from l = 0 with the
        # 1/2 folded in, s from l = 1, both truncated at n_freq
        spectrum = scipy.fft.rfft(w, axis=-1, overwrite_x=True)
        np.multiply(spectrum.real[..., : n_freq + 1], 2.0, out=a)
        np.divide(a, n_points, out=a)
        a[..., 0] *= 0.5
        if burgers:
            np.multiply(a[..., 1 : n_s + 1], deriv, out=out[..., :n_s])
            return out
        s = out[..., :n_s]
        np.multiply(spectrum.imag[..., 1 : n_s + 1], -2.0, out=s)
        s /= n_points
        s *= L / 2.0
        # a stacked matmul makes one BLAS call per batch, each with the lone
        # batch's shape; a (trials * rows)-row product would round differently
        np.add(out, a @ proj_t, out=out)
        np.multiply(out, math.sqrt(2.0 / L), out=out)
        return out

    return samples, np.empty_like(ext), coefficients


def _stage(odd: bool, m_g: int):
    """The builder of the odd or the ``fft`` stage and its sample count on
    M_g interior points."""
    return (_odd_stage, m_g) if odd else (_fft_stage, 2 * (m_g + 1))


def _table_stage(odd, burgers, degree, m_g, L, lead, n_in, n_out):
    """The stage's two maps as matrix products, one (1, n) product per row."""
    to_samples, to_out = _tables(odd, burgers, degree, m_g, L, n_in, n_out)
    samples_out = np.empty(lead + (1, to_samples.shape[-1]))
    out = np.empty(lead + (1, n_out))
    out_rows = out[..., 0, :]

    def samples(x):
        np.matmul(x[..., None, :], to_samples, out=samples_out)
        return samples_out

    def coefficients(w):
        np.matmul(w, to_out, out=out)
        return out_rows

    return samples, np.empty_like(samples_out), coefficients


@functools.lru_cache(maxsize=32)
def _tables(
    odd: bool, burgers: bool, degree: int, m_g: int, L: float, n_in: int, n_out: int
) -> tuple[np.ndarray, np.ndarray]:
    """The odd or the ``fft`` stage applied to the identity: row k of the
    (n_in, n_samples) first table is the stage's samples of mode k + 1, row j
    of the (n_samples, n_out) second its output for a unit sample at point
    j, so tables and transforms share every constant.  Each unit sample is
    its own batch of one row, so every row is projected alone.  Read-only,
    shared through the cache."""
    build, n_samples = _stage(odd, m_g)
    samples, _, coefficients = build(
        burgers, degree, m_g, L, (n_samples, 1), n_in, n_out
    )
    eye = np.eye(n_samples)[:, None]
    to_samples = samples(eye[..., :n_in])[:n_in, 0].copy()
    to_out = coefficients(eye)[:, 0].copy()
    for table in (to_samples, to_out):
        table.setflags(write=False)
    return to_samples, to_out


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
    """Sine-mode coefficients of the transport term -v v_x, shaped like
    ``nemytskii_modes``; a one-shot Burgers ``NemytskiiPlan``."""
    return nemytskii_modes(x, NonlinearitySpec("burgers"), grid, spec, n_out)


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
    out = np.empty((2,) + np.broadcast_shapes(f_v.shape, w_fit.shape))
    f = p.coupled_drift(f_v, _fit_modes(v_arr, n_out), w_fit, out)
    return f[0], f[1]
