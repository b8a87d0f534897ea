"""Eigenstructure of the diagonalized operator -A and Sobolev-type mode norms.

A mode vector is a plain 1-D float array holding the coefficients
(x^1, ..., x^M) of a field in the orthonormal eigenbasis (Phi_k) of -A.
All operations here are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DomainError, check_fields, checked, checked_result,
                     spec_field)

DIRICHLET_LAPLACIAN_1D = "dirichlet_laplacian_1d"

_SUPPORTED_KINDS = (DIRICHLET_LAPLACIAN_1D,)


@dataclass(frozen=True)
class OperatorSpec:
    """The diagonalized operator A.

    For the 1-D Dirichlet Laplacian on [0, L] the eigenvalues of -A are
    lambda_k = (pi k / L)^2 exactly, so the growth law lambda_k = Lambda k^beta
    holds with beta = 2 and Lambda = (pi / L)^2, read-only properties.
    """

    kind: str = DIRICHLET_LAPLACIAN_1D
    domain_length: float = spec_field("positive", 1.0)

    def __post_init__(self):
        check_fields(self)
        if self.kind not in _SUPPORTED_KINDS:
            raise ConfigurationError(
                f"unsupported operator kind {self.kind!r}; "
                f"supported: {', '.join(_SUPPORTED_KINDS)}"
            )
        # overflows for a tiny domain_length and underflows to 0 for a huge one
        checked_result("(pi / domain_length)**2", lambda: self.lambda_scale, "positive",
                       ConfigurationError)

    @property
    def beta(self) -> float:
        return 2.0

    @property
    def lambda_scale(self) -> float:
        return (math.pi / self.domain_length) ** 2


def eigenvalues(spec: OperatorSpec, count: int) -> np.ndarray:
    """Eigenvalues lambda_1 .. lambda_count of -A, strictly increasing."""
    k = np.arange(1, checked("count", count, "count") + 1, dtype=np.float64)
    return spec.lambda_scale * k**2


def frac_power_apply(x, rho: float, spec: OperatorSpec) -> np.ndarray:
    """Apply (-A)^rho in mode space: entry k becomes lambda_k^rho * x^k.

    Negative rho smooths.  Accepts batched input with modes on the last axis.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ConfigurationError(
            f"x must hold at least one mode on its last axis, got shape {arr.shape}"
        )
    rho = checked("rho", rho, "finite")
    lam = eigenvalues(spec, arr.shape[-1])
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
    gamma = checked("gamma", gamma, "finite", DomainError)
    beta = checked("beta", beta, "positive", DomainError)
    return checked_result("regularity limit", lambda: gamma - 1.0 / (2.0 * beta))
