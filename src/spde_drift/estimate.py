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

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityWarning,
    BlowUpError,
    ConfigurationError,
    DegenerateTrajectoryError,
    DomainError,
    check_fields,
    checked,
    spec_field,
)
from .fields import NonlinearitySpec
from .spectrum import OperatorSpec, eigenvalues
from .theory import admissibility_threshold

#: per run kind, each variant's bias integral (``bias_full`` on the full
#: field, ``bias_part`` on the field truncated to N modes, or None for no
#: bias term) and whether int v w dt is subtracted from it
BIAS_TERMS = {
    "scalar": {"full": ("bias_full", False), "partial": ("bias_part", False),
               "linear": (None, False)},
    "coupled": {"full": ("bias_full", True), "partial1": ("bias_part", True),
                "partial2": ("bias_part", False), "linear": (None, False)},
}
SCALAR_VARIANTS = tuple(BIAS_TERMS["scalar"])
COUPLED_VARIANTS = tuple(BIAS_TERMS["coupled"])
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

    alpha: float = spec_field("finite")
    n_list: tuple[int, ...] = spec_field(("count",))
    variants: tuple[str, ...] = SCALAR_VARIANTS
    bias_model: NonlinearitySpec | None = None
    numerator_mode: str = "robust"

    def __post_init__(self):
        check_fields(self)
        if len(self.n_list) == 0:
            raise ConfigurationError("n_list must be nonempty")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ConfigurationError("n_list must be strictly ascending")
        variants = tuple(self.variants)
        if not variants or not any(set(variants) <= t.keys() for t in BIAS_TERMS.values()):
            raise ConfigurationError(
                f"variants must be a subset of {SCALAR_VARIANTS} or {COUPLED_VARIANTS}"
            )
        if len(set(variants)) != len(variants):
            raise ConfigurationError("variants must be distinct")
        object.__setattr__(self, "variants", variants)
        if self.numerator_mode not in NUMERATOR_MODES:
            raise ConfigurationError(
                f"numerator_mode must be one of {NUMERATOR_MODES}"
            )


@dataclass
class EstimateResult:
    variant: str
    N: int
    alpha: float
    theta_hat: float
    numerator: float
    denominator: float
    bias: float


@dataclass
class Decomposition:
    """All scalar variants at one N, from one ``estimate_theta`` call per
    bias variant (full, partial), each of which evaluates the numerator and
    denominator itself; the linear estimate is read off the full call.

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
    """Warn when the contrast parameter violates alpha > gamma - (1+1/beta)/8,
    naming the line that called the public entry point that calls this."""
    threshold = admissibility_threshold(gamma, beta)
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
    n = checked("N", n, "count")
    x0 = np.asarray(x0, dtype=np.float64)
    xT = np.asarray(xT, dtype=np.float64)
    for name, x in (("x0", x0), ("xT", xT)):
        if x.ndim == 0:
            raise ConfigurationError(f"{name} must hold modes on its last axis, got shape ()")
    if x0.shape[-1] < n or xT.shape[-1] < n:
        raise ConfigurationError("endpoint vectors have fewer than N modes")
    lam = eigenvalues(spec, n)
    return _robust_terms(x0, xT, t_final, alpha, gamma, n, lam)


def _fold(total, terms):
    """Add the rows of ``terms`` (overwritten) to ``total`` in order, as one
    += per row would.  A reduction over rows of several values adds them in
    that order in one read; over single values it would go pairwise, so
    those take the running sum."""
    terms[0] += total
    if total.size > 1:
        np.add.reduce(terms, axis=0, out=total)
    else:
        total[...] = np.cumsum(terms, axis=0, out=terms)[-1]


class EstimatorAccumulator:
    """Running per-mode time integrals of trajectories stepped together.

    Raw integrals are alpha-independent; the lambda weights are applied at
    query time.  ``q[k]`` holds int (x^k)^2 dt, ``ito[k]`` the Ito sum of
    x^k dx^k, ``bias_full[k]`` int x^k F^k(full state) dt, ``bias_part[i, k]``
    the same with the state truncated to n_list[i] modes for k <= n_list[i]
    (zero above: no estimator reads it), and for the coupled
    system ``bias_w[k]`` holds int v^k w^k dt.  Left-endpoint Riemann sums at
    full step resolution.

    Every integral has a leading axis of ``n_trials``; ``finalize`` hands
    out one finalized accumulator per trial, with the bits that trial
    accumulates alone, and leaves the batch unfinalized, so that no query
    reads its trial axis as modes.  It holds only what ``req`` reads: a bias
    integral when a requested variant of its run kind reads it (so a
    linear-only request holds none), ``ito`` under
    ``numerator_mode = ito_sum``.
    """

    def __init__(
        self,
        n_trials: int,
        lam: np.ndarray,
        t_final: float,
        gamma: float,
        req: EstimatorRequest,
        coupled: bool = False,
    ):
        n_modes = len(lam)
        if max(req.n_list) > n_modes:
            raise ConfigurationError(
                f"truncation level {max(req.n_list)} exceeds simulated mode count {n_modes}"
            )
        self.lam = np.asarray(lam, dtype=np.float64)
        self.t_final = float(t_final)
        self.gamma = float(gamma)
        self.n_list = req.n_list
        self.coupled = coupled

        def zeros(*shape):
            return np.zeros((n_trials,) + shape)

        terms = BIAS_TERMS["coupled" if coupled else "scalar"]
        terms = [terms[v] for v in req.variants if v in terms]
        reads = {name for name, _ in terms} | {"bias_w" for _, minus_w in terms if minus_w}
        self.q = zeros(n_modes)
        self.ito = zeros(n_modes) if req.numerator_mode == "ito_sum" else None
        self.bias_full = zeros(n_modes) if "bias_full" in reads else None
        self.bias_part = zeros(len(req.n_list), n_modes) if "bias_part" in reads else None
        self.bias_w = zeros(n_modes) if "bias_w" in reads else None
        self.x0: np.ndarray | None = None
        self.xT: np.ndarray | None = None
        self._finalized = False

    # -- accumulation (left endpoints at full step resolution) ------------

    def add_bias(self, left, rows):
        """The bias terms of left states ``left`` (steps, trials, components,
        n_modes) in step order, given per step the bias model's ``rows`` of
        the integrals held: on the full field, then the first n_list[i]
        coefficients on the field truncated to that many modes.  The columns
        of ``bias_part[:, i]`` above n_list[i] stay zero."""
        v = left[:, :, 0]
        if self.bias_full is not None:
            _fold(self.bias_full, v * rows[0])
            rows = rows[1:]
        for i, (n, f) in enumerate(zip(self.n_list, rows)):
            _fold(self.bias_part[:, i, :n], v[..., :n] * f)
        if self.bias_w is not None:
            _fold(self.bias_w, v * left[:, :, 1])

    def add_path(self, path, modes: slice = slice(None)):
        """``q`` and ``ito`` of each step of path rows x_j .. x_{j+n} of
        ``modes``."""
        left = path[:-1]
        _fold(self.q[:, modes], left * left)
        if self.ito is not None:
            steps = path[1:] - left
            steps *= left
            _fold(self.ito[:, modes], steps)

    def finalize(self, h: float, x0, xT) -> list["EstimatorAccumulator"]:
        """One finalized accumulator per trial b: its Riemann sums times the
        step h, its Itô sum, and the endpoints x0[b] and xT[b]."""
        x0 = np.asarray(x0, dtype=np.float64)
        xT = np.asarray(xT, dtype=np.float64)
        out = []
        for b in range(len(self.q)):
            acc = copy.copy(self)
            for name in ("q", "bias_full", "bias_part", "bias_w"):
                arr = getattr(self, name)
                if arr is not None:
                    setattr(acc, name, arr[b] * h)
            acc.ito = None if self.ito is None else self.ito[b].copy()
            acc.x0, acc.xT = x0[b].copy(), xT[b].copy()
            acc._finalized = True
            out.append(acc)
        return out

    # -- queries -----------------------------------------------------------

    def _check_ready(self, n: int) -> int:
        """``n`` as a checked mode count within 1..n_modes."""
        if not self._finalized:
            raise ConfigurationError("accumulator has not been finalized")
        n = checked("N", n, "count")
        if n > len(self.lam):
            raise ConfigurationError(
                f"N={n} outside simulated mode range 1..{len(self.lam)}"
            )
        return n

    def denominator(self, n: int, alpha: float) -> float:
        """D_N = int sum_{k<=N} lambda_k^{2+2a} (x^k)^2 dt.

        Computed as a sequential prefix sum so D_N is exactly nondecreasing
        in N.
        """
        n = self._check_ready(n)
        w = self.lam[:n] ** (2.0 + 2.0 * alpha)
        return float(np.cumsum(w * self.q[:n])[-1])

    def numerator(self, n: int, alpha: float, mode: str = "robust") -> float:
        n = self._check_ready(n)
        if mode == "robust":
            return _robust_terms(
                self.x0, self.xT, self.t_final, alpha, self.gamma, n, self.lam
            )
        if mode == "ito_sum":
            if self.ito is None:
                raise ConfigurationError("the Itô sum needs numerator_mode = 'ito_sum'")
            w = self.lam[:n] ** (1.0 + 2.0 * alpha)
            return float(np.sum(w * self.ito[:n]))
        raise ConfigurationError(f"unknown numerator mode {mode!r}")

    def bias_numerator(self, variant: str, n: int, alpha: float) -> float:
        """sum_{k<=N} lambda_k^{1+2a} times the variant's bias integral, as
        ``BIAS_TERMS`` names it for this accumulator's run kind."""
        n = self._check_ready(n)
        kind = "coupled" if self.coupled else "scalar"
        if variant not in BIAS_TERMS[kind]:
            raise ConfigurationError(
                f"variant {variant!r} is not one of the {kind} variants "
                f"{'/'.join(BIAS_TERMS[kind])}"
            )
        integral, minus_w = BIAS_TERMS[kind][variant]
        if integral is None:
            return 0.0
        for name in (integral, "bias_w")[: 1 + minus_w]:
            if getattr(self, name) is None:
                raise ConfigurationError(
                    f"{name} was not accumulated: no requested variant reads it")
        row = getattr(self, integral)
        if integral == "bias_part":
            if n not in self.n_list:
                raise ConfigurationError(
                    f"partial bias only available at N in {self.n_list}, got {n}"
                )
            row = row[self.n_list.index(n)]
        row = row[:n] - self.bias_w[:n] if minus_w else row[:n]
        w = self.lam[:n] ** (1.0 + 2.0 * alpha)
        return float(np.sum(w * row))


def estimate_theta(
    acc: EstimatorAccumulator, req: EstimatorRequest, variant: str, n: int
) -> EstimateResult:
    """One estimator value theta_hat = -(numerator)/D_N + bias."""
    n = acc._check_ready(n)
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
    return EstimateResult(variant, n, req.alpha, -num / d + bias, num, d, bias)


def decompose(acc: EstimatorAccumulator, req: EstimatorRequest, n: int) -> Decomposition:
    """All scalar variants at once with exact decomposition identities."""
    if acc.coupled:
        raise ConfigurationError("decompose applies to scalar runs; use coupled_estimates")
    full, partial = (estimate_theta(acc, req, v, n) for v in ("full", "partial"))
    return Decomposition(
        N=full.N,
        theta_full=full.theta_hat,
        theta_partial=partial.theta_hat,
        theta_linear=-full.numerator / full.denominator,
        bias_full=full.bias,
        bias_partial=partial.bias,
    )


def coupled_estimates(
    acc: EstimatorAccumulator, req: EstimatorRequest, n: int
) -> dict[str, EstimateResult]:
    """The four coupled-system estimators at N, one ``estimate_theta`` call
    each, so each evaluates the numerator and denominator itself."""
    return {v: estimate_theta(acc, req, v, n) for v in COUPLED_VARIANTS}


def z_score(theta_hat: float, n: int, theta_true: float, variance: float, beta: float) -> float:
    variance = checked("variance", variance, "positive", DomainError)
    return float(n ** ((beta + 1.0) / 2.0) * (theta_hat - theta_true) / np.sqrt(variance))


def standardize(
    result: EstimateResult, theta_true: float, variance: float, beta: float
) -> float:
    """Standardized residual z = N^{(beta+1)/2} (theta_hat - theta) / sqrt(V)."""
    return z_score(result.theta_hat, result.N, theta_true, variance, beta)
