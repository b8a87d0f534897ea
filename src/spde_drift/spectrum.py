"""Eigenstructure of the diagonalized operator -A and Sobolev-type mode norms.

A mode vector is a plain 1-D float array holding the coefficients
(x^1, ..., x^M) of a field in the orthonormal eigenbasis (Phi_k) of -A.
All operations here are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

DIRICHLET_LAPLACIAN_1D = "dirichlet_laplacian_1d"

_SUPPORTED_KINDS = (DIRICHLET_LAPLACIAN_1D,)


@dataclass(frozen=True)
class OperatorSpec:
    """The diagonalized operator A.

    For the 1-D Dirichlet Laplacian on [0, L] the eigenvalues of -A are
    lambda_k = (pi k / L)^2 exactly, so the growth law lambda_k = Lambda k^beta
    holds with beta = 2 and Lambda = (pi / L)^2.  ``beta`` and ``lambda_scale``
    are derived in ``__post_init__`` and may not be overridden inconsistently.
    """

    kind: str = DIRICHLET_LAPLACIAN_1D
    domain_length: float = 1.0
    beta: float = field(default=None)  # type: ignore[assignment]
    lambda_scale: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in _SUPPORTED_KINDS:
            raise ConfigurationError(
                f"unsupported operator kind {self.kind!r}; "
                f"supported: {', '.join(_SUPPORTED_KINDS)}"
            )
        if not (self.domain_length > 0):
            raise ConfigurationError("domain_length must be positive")
        beta = 2.0
        lam_scale = (math.pi / self.domain_length) ** 2
        if self.beta is not None and self.beta != beta:
            raise ConfigurationError(
                f"beta must be {beta} for {self.kind}, got {self.beta}"
            )
        if self.lambda_scale is not None and not math.isclose(
            self.lambda_scale, lam_scale, rel_tol=1e-12
        ):
            raise ConfigurationError(
                f"lambda_scale must be (pi/L)^2 = {lam_scale!r} for {self.kind}"
            )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "lambda_scale", lam_scale)


def eigenvalues(spec: OperatorSpec, count: int) -> np.ndarray:
    """Eigenvalues lambda_1 .. lambda_count of -A, strictly increasing."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    k = np.arange(1, count + 1, dtype=np.float64)
    return spec.lambda_scale * k**2


def frac_power_apply(x, rho: float, spec: OperatorSpec) -> np.ndarray:
    """Apply (-A)^rho in mode space: entry k becomes lambda_k^rho * x^k.

    Negative rho smooths.  Accepts batched input with modes on the last axis.
    """
    arr = np.asarray(x, dtype=np.float64)
    lam = eigenvalues(spec, arr.shape[-1])
    if rho == 0.0:
        return arr.copy()
    return lam**rho * arr


def sobolev_norm(x, rho: float, spec: OperatorSpec) -> float:
    """Sobolev-type norm |(-A)^rho x| = (sum_k lambda_k^{2 rho} (x^k)^2)^{1/2}.

    Computed as the plain Euclidean norm of ``frac_power_apply(x, rho)`` so
    that both expressions agree bit for bit.
    """
    y = frac_power_apply(x, rho, spec)
    return float(np.sqrt(np.sum(y * y)))


def regularity_limit(gamma: float, beta: float) -> float:
    """Regularity limit rho* = gamma - 1/(2 beta) of the solution scale."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    return gamma - 1.0 / (2.0 * beta)
