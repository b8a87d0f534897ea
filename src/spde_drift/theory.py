"""Closed-form asymptotics: rate and variance constants, moment formulas for
the drift-free mode processes, and an advisor encoding what is provable for
the worked example classes (reaction-diffusion, Burgers, Cahn-Hilliard).

The normalized estimator error N^{(beta+1)/2} (theta_hat - theta) converges
to a centered normal with variance

    V = c_mean(2a - g) / c_mean(a)^2
      = 2 theta (beta(2a-2g+1)+1)^2 / (T Lambda (beta(4a-4g+1)+1)),

minimal at contrast parameter a = g.  The advisor does not re-derive the
underlying Sobolev estimates; it hard-codes the excess-regularity and
Lipschitz-smoothing parameters known for each example class and reports which
hypothesis fails when a status cannot be guaranteed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import (ConfigurationError, DomainError, check_fields, checked, checked_result,
                     spec_field)

EXAMPLES = ("reaction_diffusion", "burgers", "cahn_hilliard")

STATUS_NORMAL = "asymptotically_normal"
STATUS_RATE = "consistent_with_rate"
STATUS_CONSISTENT = "consistent"
STATUS_NOT_COVERED = "not_covered"


@dataclass(frozen=True)
class AsymptoticConstants:
    """Cumulative observed-information constants and the limit variance.

    c_mean scales the expected denominator growth N^{beta(2a-2g+1)+1},
    c_var its variance growth N^{beta(4a-4g+1)+1}; ``variance`` is the
    asymptotic variance of the normalized error and ``rate_exponent`` the
    normalization exponent (beta+1)/2.
    """

    c_mean: float
    c_var: float
    variance: float
    rate_exponent: float


def admissibility_threshold(gamma: float, beta: float) -> float:
    """gamma - (1 + 1/beta)/8: the estimators' asymptotics need the contrast
    parameter alpha above it."""
    return gamma - (1.0 + 1.0 / beta) / 8.0


def asymptotic_constants(
    theta: float,
    t_final: float,
    lambda_scale: float,
    beta: float,
    gamma: float,
    alpha: float,
) -> AsymptoticConstants:
    positive = {"theta": theta, "t_final": t_final, "lambda_scale": lambda_scale, "beta": beta}
    for name, value in {**positive, "gamma": gamma, "alpha": alpha}.items():
        checked(name, value, "positive" if name in positive else "finite", DomainError)
    threshold = admissibility_threshold(gamma, beta)
    if not alpha > threshold:
        raise DomainError(
            f"alpha > gamma - (1+1/beta)/8 required: alpha={alpha}, "
            f"threshold={threshold}"
        )
    a2 = 2.0 * alpha - 2.0 * gamma + 1.0
    a4 = 4.0 * alpha - 4.0 * gamma + 1.0
    c_mean = checked_result("c_mean", lambda: (
        t_final * lambda_scale**a2 / (2.0 * theta * (beta * a2 + 1.0))))
    c_var = checked_result("c_var", lambda: (
        t_final * lambda_scale**a4 / (2.0 * theta**3 * (beta * a4 + 1.0))))
    # Lambda enters to the first power: the c_mean(2a-g) / c_mean(a)^2 ratio
    # leaves exponent a4 - 2*a2 = -1
    variance = checked_result("variance", lambda: (
        2.0 * theta * (beta * a2 + 1.0) ** 2
        / (t_final * lambda_scale * (beta * a4 + 1.0))))
    return AsymptoticConstants(
        c_mean=c_mean,
        c_var=c_var,
        variance=variance,
        rate_exponent=(beta + 1.0) / 2.0,
    )


@dataclass(frozen=True)
class OUMomentOracle:
    """Exact second-moment functionals of one drift-free mode process
    started at zero: d x = -theta lam x dt + lam^{-gamma} dW."""

    mean_integral: float
    var_integral_leading: float
    cov: Callable[[float, float], float]


def ou_moment_oracle(
    theta: float, gamma: float, lam: float, t_final: float
) -> OUMomentOracle:
    for name, value in (("theta", theta), ("gamma", gamma), ("lam", lam), ("t_final", t_final)):
        checked(name, value, "positive", DomainError)
    stationary = checked_result(
        "stationary", lambda: lam ** (-(2.0 * gamma + 1.0)) / (2.0 * theta))

    def cov(s: float, t: float) -> float:
        lo, hi = (s, t) if s <= t else (t, s)
        return stationary * (
            math.exp(-theta * lam * (hi - lo)) - math.exp(-theta * lam * (hi + lo))
        )

    mean_integral = checked_result("mean_integral", lambda: stationary * (
        t_final - (-math.expm1(-2.0 * theta * lam * t_final)) / (2.0 * theta * lam)
    ))
    var_leading = checked_result("var_integral_leading", lambda: (
        t_final * lam ** (-(4.0 * gamma + 3.0)) / (2.0 * theta**3)))
    return OUMomentOracle(
        mean_integral=mean_integral,
        var_integral_leading=var_leading,
        cov=cov,
    )


@dataclass(frozen=True)
class AdvisorQuery:
    """Which example class, in which regime, is being asked about.

    ``theta``, ``t_final`` and ``lambda_scale`` only scale the reported
    variance; they default to 1, 1 and pi^2 (unit interval).
    """

    example: str
    gamma: float = spec_field("finite")
    alpha: float = spec_field("finite")
    n: int = spec_field("count", 1)
    m_f: int | None = spec_field("count", None)
    leading_coeff_negative: bool = False
    m_f_odd: bool = False
    theta: float = spec_field("positive", 1.0)
    t_final: float = spec_field("positive", 1.0)
    lambda_scale: float = spec_field("positive", math.pi**2)

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ConfigurationError(
                f"unknown example {self.example!r}; choose from {EXAMPLES}"
            )
        check_fields(self)
        if self.example == "burgers" and self.n != 1:
            raise ConfigurationError("the transport example is one-dimensional (n=1)")
        if self.example == "cahn_hilliard" and self.n > 3:
            raise ConfigurationError("the fourth-order example covers n <= 3 only")
        if self.example == "reaction_diffusion":
            if self.m_f is None or self.m_f < 2:
                raise ConfigurationError(
                    "reaction_diffusion needs the polynomial degree m_f >= 2"
                )


@dataclass
class EstimatorAdvice:
    status: str
    rate: float | None = None
    variance: float | None = None

    def to_json_dict(self):
        return {"status": self.status, "rate": self.rate, "V": self.variance}


@dataclass
class Advice:
    example: str
    beta: float
    hypotheses: list[tuple[str, bool]]
    estimators: dict[str, EstimatorAdvice]
    notes: list[str] = field(default_factory=list)

    @property
    def all_hypotheses_hold(self) -> bool:
        return all(ok for _, ok in self.hypotheses)

    def to_json_dict(self):
        return {
            "example": self.example,
            "beta": self.beta,
            "hypotheses": [
                {"name": name, "satisfied": ok} for name, ok in self.hypotheses
            ],
            "estimators": {
                name: adv.to_json_dict() for name, adv in self.estimators.items()
            },
            "notes": list(self.notes),
        }


def _not_covered_all() -> dict[str, EstimatorAdvice]:
    return {
        "full": EstimatorAdvice(STATUS_NOT_COVERED),
        "partial": EstimatorAdvice(STATUS_NOT_COVERED),
        "linear": EstimatorAdvice(STATUS_NOT_COVERED),
    }


def _variance(q: AdvisorQuery, beta: float) -> float:
    """V of the full estimator, once the alpha hypothesis holds."""
    return asymptotic_constants(
        q.theta, q.t_final, q.lambda_scale, beta, q.gamma, q.alpha
    ).variance


def _advise_reaction_diffusion(q: AdvisorQuery) -> Advice:
    n = q.n
    beta = 2.0 / n
    rate_full = 0.5 + 1.0 / n
    hyp: list[tuple[str, bool]] = []
    notes = []

    # the threshold asymptotic_constants tests, so _variance never refuses alpha
    threshold = admissibility_threshold(q.gamma, beta)
    alpha_ok = q.alpha > threshold
    hyp.append((f"alpha > gamma - (n+2)/16 = {threshold}", alpha_ok))
    hyp.append(
        (f"solution regularity rho > n/4 - 1/m_F = {n / 4.0 - 1.0 / q.m_f} (assumed)", True)
    )
    notes.append(
        "the regularity hypothesis on the observed solution is an assumption, "
        "not a checked fact"
    )
    if not alpha_ok:
        return Advice(q.example, beta, hyp, _not_covered_all(), notes)

    variance = _variance(q, beta)
    estimators = {"full": EstimatorAdvice(STATUS_NORMAL, rate_full, variance)}

    gamma_ok = q.gamma > n / 2.0 + 0.5
    hyp.append((f"gamma > n/2 + 1/2 = {n / 2.0 + 0.5}", gamma_ok))
    hyp.append(("m_F odd", q.m_f_odd))
    hyp.append(("leading coefficient negative", q.leading_coeff_negative))

    if gamma_ok and q.m_f_odd and q.leading_coeff_negative:
        eps_eff = 1.0 if q.m_f <= 3 else 0.5 + 2.0 / q.m_f
        delta_eff = 1.0
        threshold = (1.0 + 1.0 / beta) / 2.0
        if delta_eff > threshold or eps_eff > threshold:
            estimators["partial"] = EstimatorAdvice(STATUS_NORMAL, rate_full, variance)
        else:
            bound = min(beta * max(delta_eff, eps_eff), rate_full)
            estimators["partial"] = EstimatorAdvice(STATUS_RATE, bound)
        if eps_eff > threshold:
            estimators["linear"] = EstimatorAdvice(STATUS_NORMAL, rate_full, variance)
        else:
            bound = min(beta * eps_eff, rate_full)
            estimators["linear"] = EstimatorAdvice(STATUS_RATE, bound)
    else:
        estimators["partial"] = EstimatorAdvice(STATUS_CONSISTENT)
        estimators["linear"] = EstimatorAdvice(STATUS_CONSISTENT)
    return Advice(q.example, beta, hyp, estimators, notes)


def _advise_burgers(q: AdvisorQuery) -> Advice:
    beta = 2.0
    threshold = admissibility_threshold(q.gamma, beta)  # gamma - 3/16
    hyp = [
        ("gamma > 1/2", q.gamma > 0.5),
        (f"alpha > gamma - 3/16 = {threshold}", q.alpha > threshold),
    ]
    if not all(ok for _, ok in hyp):
        return Advice(q.example, beta, hyp, _not_covered_all())
    estimators = {
        "full": EstimatorAdvice(STATUS_NORMAL, 1.5, _variance(q, beta)),
        "partial": EstimatorAdvice(STATUS_RATE, 1.0),
        "linear": EstimatorAdvice(STATUS_RATE, 1.0),
    }
    return Advice(q.example, beta, hyp, estimators)


def _advise_cahn_hilliard(q: AdvisorQuery) -> Advice:
    n = q.n
    beta = 4.0 / n
    rate_full = 0.5 + 2.0 / n
    threshold = admissibility_threshold(q.gamma, beta)  # gamma - (n+4)/32
    hyp = [(f"alpha > gamma - (n+4)/32 = {threshold}", q.alpha > threshold)]
    if n == 3:
        hyp.append(("gamma > 10/24", q.gamma > 10.0 / 24.0))
    if not all(ok for _, ok in hyp):
        return Advice(q.example, beta, hyp, _not_covered_all())
    upgraded = q.gamma > n / 4.0  # regularity limit above n/8
    hyp.append((f"rho* > n/8 (i.e. gamma > n/4) for the upgraded partial rate", upgraded))
    partial_rate = 2.0 / n if upgraded else 4.0 / (3.0 * n)
    estimators = {
        "full": EstimatorAdvice(STATUS_NORMAL, rate_full, _variance(q, beta)),
        "partial": EstimatorAdvice(STATUS_RATE, partial_rate),
        "linear": EstimatorAdvice(STATUS_RATE, 4.0 / (3.0 * n)),
    }
    return Advice(q.example, beta, hyp, estimators)


def advise(q: AdvisorQuery) -> Advice:
    """Status, rate and variance advice per estimator variant.

    ``rate`` means: asymptotically normal at exactly N^rate for status
    asymptotically_normal, consistent at N^a for every a < rate for status
    consistent_with_rate, and no guaranteed rate for status consistent.
    """
    if q.example == "reaction_diffusion":
        return _advise_reaction_diffusion(q)
    if q.example == "burgers":
        return _advise_burgers(q)
    return _advise_cahn_hilliard(q)
