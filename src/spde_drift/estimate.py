"""Drift estimators built from trajectory functionals.

Three estimators for the diffusivity theta share a common structure:

    theta_hat = -(numerator) / D_N + bias,

where D_N = int_0^T sum_{k<=N} lambda_k^{2+2a} (x_t^k)^2 dt is the
observed-information denominator, the numerator is the stochastic integral
int <(-A)^{1+2a} X^N, dX^N> (robust endpoint representation by default), and
the bias correction removes the nonlinearity's contribution:

    full    -- bias uses F evaluated on the full field,
    partial -- bias uses F evaluated on the N-mode truncation,
    linear  -- no bias correction.

For the coupled activator/recovery system four variants exist (full,
partial1, partial2, linear) depending on how much of the recovery component
is observed.

The accumulator stores raw per-mode time integrals (independent of the
contrast parameter alpha); all mode weights are applied at query time with a
fixed evaluation order, so prefix sums are exactly nondecreasing in N and the
decomposition identities theta_full = theta_linear + bias hold bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityWarning,
    BlowUpError,
    ConfigurationError,
    DegenerateTrajectoryError,
    DomainError,
)
from .fields import NonlinearitySpec
from .spectrum import OperatorSpec, eigenvalues

SCALAR_VARIANTS = ("full", "partial", "linear")
COUPLED_VARIANTS = ("full", "partial1", "partial2", "linear")
NUMERATOR_MODES = ("robust", "ito_sum")

#: denominators below this threshold are treated as exactly zero
DEGENERACY_THRESHOLD = 1e-300


@dataclass(frozen=True)
class EstimatorRequest:
    """What to estimate: contrast parameter, truncation levels, variants.

    ``bias_model`` is the nonlinearity used inside the bias correction; None
    means "use the simulated model's own drift nonlinearity".  Setting it to
    a different nonlinearity (e.g. none) deliberately misspecifies the
    estimator for robustness studies.
    """

    alpha: float
    n_list: tuple[int, ...]
    variants: tuple[str, ...] = SCALAR_VARIANTS
    bias_model: NonlinearitySpec | None = None
    numerator_mode: str = "robust"

    def __post_init__(self):
        n_list = tuple(int(n) for n in self.n_list)
        if len(n_list) == 0:
            raise ConfigurationError("n_list must be nonempty")
        if any(n < 1 for n in n_list):
            raise ConfigurationError("truncation levels must be >= 1")
        if list(n_list) != sorted(set(n_list)):
            raise ConfigurationError("n_list must be strictly ascending")
        object.__setattr__(self, "n_list", n_list)
        variants = tuple(self.variants)
        scalar = all(v in SCALAR_VARIANTS for v in variants)
        coupled = all(v in COUPLED_VARIANTS for v in variants)
        if not variants or not (scalar or coupled):
            raise ConfigurationError(
                f"variants must be a subset of {SCALAR_VARIANTS} or {COUPLED_VARIANTS}"
            )
        object.__setattr__(self, "variants", variants)
        if self.numerator_mode not in NUMERATOR_MODES:
            raise ConfigurationError(
                f"numerator_mode must be one of {NUMERATOR_MODES}"
            )

    @property
    def wants_partial(self) -> bool:
        return any(v.startswith("partial") for v in self.variants)


@dataclass
class EstimateResult:
    variant: str
    N: int
    alpha: float
    theta_hat: float
    numerator: float
    denominator: float
    bias: float
    z: float | None = None


@dataclass
class Decomposition:
    """All scalar variants at once, sharing one numerator evaluation.

    By construction theta_full == theta_linear + bias_full and
    theta_partial == theta_linear + bias_partial, bit for bit.
    """

    N: int
    theta_full: float
    theta_partial: float
    theta_linear: float
    bias_full: float
    bias_partial: float


def warn_if_inadmissible(alpha: float, gamma: float, beta: float) -> None:
    """Warn when the contrast parameter violates alpha > gamma - (1+1/beta)/8."""
    threshold = gamma - (1.0 + 1.0 / beta) / 8.0
    if alpha <= threshold:
        warnings.warn(
            f"alpha={alpha} is not above the admissibility threshold "
            f"gamma - (1+1/beta)/8 = {threshold}; asymptotic guarantees "
            "do not apply",
            AdmissibilityWarning,
            stacklevel=3,
        )


def _robust_terms(x0, xT, t_final, alpha, gamma, n, lam):
    w = lam[:n] ** (1.0 + 2.0 * alpha)
    correction = t_final * lam[:n] ** (-2.0 * gamma)
    return 0.5 * float(
        np.sum(w * (xT[:n] ** 2 - x0[:n] ** 2 - correction))
    )


def robust_numerator(
    x0, xT, t_final: float, alpha: float, gamma: float, n: int, spec: OperatorSpec
) -> float:
    """Endpoint representation of int <(-A)^{1+2a} X^N, dX^N>:

        1/2 sum_{k<=N} lambda_k^{1+2a} ((x_T^k)^2 - (x_0^k)^2 - T lambda_k^{-2 gamma})
    """
    x0 = np.asarray(x0, dtype=np.float64)
    xT = np.asarray(xT, dtype=np.float64)
    if x0.shape[-1] < n or xT.shape[-1] < n:
        raise ConfigurationError("endpoint vectors have fewer than N modes")
    lam = eigenvalues(spec, n)
    return _robust_terms(x0, xT, t_final, alpha, gamma, n, lam)


class EstimatorAccumulator:
    """Running per-mode time integrals collected along one trajectory.

    Raw integrals are alpha-independent; the lambda weights are applied at
    query time.  ``q[k]`` holds int (x^k)^2 dt, ``bias_full[k]`` holds
    int x^k F^k(full state) dt, ``bias_part[i, k]`` the same with the state
    truncated to n_list[i] modes, and for the coupled system ``bias_w[k]``
    holds int v^k w^k dt.  Left-endpoint Riemann sums at full step resolution.
    """

    def __init__(
        self,
        lam: np.ndarray,
        t_final: float,
        gamma: float,
        n_list: tuple[int, ...],
        coupled: bool = False,
        track_partial: bool = True,
    ):
        n_modes = len(lam)
        if max(n_list) > n_modes:
            raise ConfigurationError(
                f"truncation level {max(n_list)} exceeds simulated mode count {n_modes}"
            )
        self.lam = np.asarray(lam, dtype=np.float64)
        self.t_final = float(t_final)
        self.gamma = float(gamma)
        self.n_list = tuple(n_list)
        self.coupled = coupled
        self.q = np.zeros(n_modes)
        self.ito = np.zeros(n_modes)
        self.bias_full = np.zeros(n_modes)
        self.bias_part = np.zeros((len(n_list), n_modes)) if track_partial else None
        self.bias_w = np.zeros(n_modes) if coupled else None
        self.x0: np.ndarray | None = None
        self.xT: np.ndarray | None = None
        self._finalized = False

    # -- accumulation (called once per time step with the left endpoint) --

    def add_state(self, x, f_full=None, f_part_rows=None, w=None):
        self.q += x * x
        if f_full is not None:
            self.bias_full += x * f_full
        if f_part_rows is not None:
            self.bias_part += x * f_part_rows
        if w is not None:
            self.bias_w += x * w

    def add_increment(self, x, x_next):
        self.ito += x * (x_next - x)

    def finalize(self, h: float, x0, xT):
        self.q *= h
        self.bias_full *= h
        if self.bias_part is not None:
            self.bias_part *= h
        if self.bias_w is not None:
            self.bias_w *= h
        self.x0 = np.array(x0, dtype=np.float64)
        self.xT = np.array(xT, dtype=np.float64)
        self._finalized = True

    @classmethod
    def from_linear_path(
        cls, path: np.ndarray, h: float, lam, t_final, gamma, n_list
    ) -> "EstimatorAccumulator":
        """Accumulator for a drift-free (F = 0) path sampled on a uniform grid.

        ``path`` has shape (n_steps + 1, n_modes); all bias integrals vanish.
        """
        acc = cls(lam, t_final, gamma, n_list, track_partial=True)
        left = path[:-1]
        acc.q = h * np.sum(left * left, axis=0)
        acc.ito = np.sum(left * (path[1:] - left), axis=0)
        acc.x0 = path[0].copy()
        acc.xT = path[-1].copy()
        acc._finalized = True
        return acc

    # -- queries -----------------------------------------------------------

    def _check_ready(self, n: int):
        if not self._finalized:
            raise ConfigurationError("accumulator has not been finalized")
        if not (1 <= n <= len(self.lam)):
            raise ConfigurationError(
                f"N={n} outside simulated mode range 1..{len(self.lam)}"
            )

    def denominator(self, n: int, alpha: float) -> float:
        """D_N = int sum_{k<=N} lambda_k^{2+2a} (x^k)^2 dt.

        Computed as a sequential prefix sum so D_N is exactly nondecreasing
        in N.
        """
        self._check_ready(n)
        w = self.lam[:n] ** (2.0 + 2.0 * alpha)
        return float(np.cumsum(w * self.q[:n])[-1])

    def numerator(self, n: int, alpha: float, mode: str = "robust") -> float:
        self._check_ready(n)
        if mode == "robust":
            return _robust_terms(
                self.x0, self.xT, self.t_final, alpha, self.gamma, n, self.lam
            )
        if mode == "ito_sum":
            w = self.lam[:n] ** (1.0 + 2.0 * alpha)
            return float(np.sum(w * self.ito[:n]))
        raise ConfigurationError(f"unknown numerator mode {mode!r}")

    def bias_numerator(self, variant: str, n: int, alpha: float) -> float:
        self._check_ready(n)
        if variant == "linear":
            return 0.0
        w = self.lam[:n] ** (1.0 + 2.0 * alpha)
        if variant == "full":
            base = self.bias_full[:n]
            if self.coupled:
                base = base - self.bias_w[:n]
            return float(np.sum(w * base))
        if variant in ("partial", "partial1", "partial2"):
            if (variant == "partial") == self.coupled:
                raise ConfigurationError(
                    f"variant {variant!r} does not match accumulator kind"
                )
            if self.bias_part is None:
                raise ConfigurationError(
                    "partial bias integrals were not accumulated for this run"
                )
            if n not in self.n_list:
                raise ConfigurationError(
                    f"partial bias only available at N in {self.n_list}, got {n}"
                )
            row = self.bias_part[self.n_list.index(n), :n]
            if variant == "partial1":
                row = row - self.bias_w[:n]
            return float(np.sum(w * row))
        raise ConfigurationError(f"unknown variant {variant!r}")


def _theta_parts(acc, req, variant, n):
    d = acc.denominator(n, req.alpha)
    if not np.isfinite(d):
        raise BlowUpError(
            step=None, mode=None, message="non-finite denominator (blown-up trajectory)"
        )
    if d < DEGENERACY_THRESHOLD:
        raise DegenerateTrajectoryError(
            f"denominator D_{n} = {d} is numerically zero (degenerate trajectory)"
        )
    num = acc.numerator(n, req.alpha, req.numerator_mode)
    bias = acc.bias_numerator(variant, n, req.alpha) / d
    theta_lin = -num / d
    return d, num, bias, theta_lin


def estimate_theta(
    acc: EstimatorAccumulator, req: EstimatorRequest, variant: str, n: int
) -> EstimateResult:
    """One estimator value theta_hat = -(numerator)/D_N + bias."""
    d, num, bias, theta_lin = _theta_parts(acc, req, variant, n)
    return EstimateResult(
        variant=variant,
        N=n,
        alpha=req.alpha,
        theta_hat=theta_lin + bias,
        numerator=num,
        denominator=d,
        bias=bias,
    )


def decompose(acc: EstimatorAccumulator, req: EstimatorRequest, n: int) -> Decomposition:
    """All scalar variants at once with exact decomposition identities."""
    if acc.coupled:
        raise ConfigurationError("decompose applies to scalar runs; use coupled_estimates")
    d, num, bias_full, theta_lin = _theta_parts(acc, req, "full", n)
    bias_partial = acc.bias_numerator("partial", n, req.alpha) / d
    return Decomposition(
        N=n,
        theta_full=theta_lin + bias_full,
        theta_partial=theta_lin + bias_partial,
        theta_linear=theta_lin,
        bias_full=bias_full,
        bias_partial=bias_partial,
    )


def coupled_estimates(
    acc: EstimatorAccumulator, req: EstimatorRequest, n: int
) -> dict[str, EstimateResult]:
    """The four coupled-system estimators sharing one numerator/denominator."""
    if not acc.coupled:
        raise ConfigurationError("accumulator does not come from a coupled run")
    out = {}
    for variant in COUPLED_VARIANTS:
        out[variant] = estimate_theta(acc, req, variant, n)
    return out


def z_score(theta_hat: float, n: int, theta_true: float, variance: float, beta: float) -> float:
    if variance <= 0:
        raise DomainError("asymptotic variance must be positive")
    return float(n ** ((beta + 1.0) / 2.0) * (theta_hat - theta_true) / np.sqrt(variance))


def standardize(
    result: EstimateResult, theta_true: float, variance: float, beta: float
) -> float:
    """Standardized residual z = N^{(beta+1)/2} (theta_hat - theta) / sqrt(V)."""
    return z_score(result.theta_hat, result.N, theta_true, variance, beta)
