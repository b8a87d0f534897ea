import math

import numpy as np
import pytest

from spde_drift.errors import ConfigurationError, DomainError
from spde_drift.spectrum import (
    OperatorSpec,
    eigenvalues,
    frac_power_apply,
    regularity_limit,
    sobolev_norm,
)

PI = math.pi


def test_eigenvalues_unit_interval():
    spec = OperatorSpec()
    lam = eigenvalues(spec, 3)
    assert lam == pytest.approx([PI**2, 4 * PI**2, 9 * PI**2], rel=1e-14)
    assert lam[0] == pytest.approx(9.8696044, rel=1e-7)


def test_eigenvalues_scaled_domain():
    spec = OperatorSpec(domain_length=2.0)
    lam = eigenvalues(spec, 1)
    assert lam[0] == pytest.approx((PI / 2) ** 2, rel=1e-14)
    assert lam[0] == pytest.approx(2.4674011, rel=1e-7)


def test_eigenvalues_strictly_increasing():
    lam = eigenvalues(OperatorSpec(), 64)
    assert np.all(np.diff(lam) > 0)
    assert lam[0] > 0


def test_eigenvalues_count_validation():
    with pytest.raises(ConfigurationError):
        eigenvalues(OperatorSpec(), 0)


def test_unsupported_kind_rejected():
    with pytest.raises(ConfigurationError):
        OperatorSpec(kind="neumann_laplacian_1d")


@pytest.mark.parametrize("length, words", [(1e-300, "finite, got inf"),
                                           (1e200, "positive, got 0.0")],
                         ids=["overflow", "underflow"])
def test_domain_length_without_a_finite_positive_scale_rejected_by_name(length, words):
    with pytest.raises(ConfigurationError,
                       match=rf"^\(pi / domain_length\)\*\*2 must be {words}$"):
        OperatorSpec(domain_length=length)


def test_growth_constants_are_derived_from_the_domain():
    for length in (1.0, 2.0):
        spec = OperatorSpec(domain_length=length)
        assert spec.beta == 2.0
        assert spec.lambda_scale == pytest.approx((PI / length) ** 2, rel=1e-15)


def test_frac_power_identity():
    spec = OperatorSpec()
    x = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(frac_power_apply(x, 0.0, spec), x)


@pytest.mark.parametrize("x, shape", [(1.0, r"\(\)"), ([], r"\(0,\)")], ids=["0-d", "empty"])
def test_mode_vectors_without_a_mode_are_rejected_by_name(x, shape):
    for call in (frac_power_apply, sobolev_norm):
        with pytest.raises(ConfigurationError, match=f"x must hold at least one mode .* {shape}"):
            call(x, 0.5, OperatorSpec())


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf, "0.5", True])
def test_non_finite_exponents_are_rejected_by_name(rho):
    for call in (frac_power_apply, sobolev_norm):
        with pytest.raises(ConfigurationError, match="^rho must be "):
            call([1.0, 2.0], rho, OperatorSpec())


def test_frac_power_one():
    spec = OperatorSpec()
    out = frac_power_apply([1.0, 1.0], 1.0, spec)
    assert out == pytest.approx([PI**2, 4 * PI**2], rel=1e-14)


def test_frac_power_smoothing():
    spec = OperatorSpec()
    out = frac_power_apply([1.0], -0.5, spec)
    assert out[0] == pytest.approx(1.0 / PI, rel=1e-14)


def test_frac_power_round_trip():
    spec = OperatorSpec()
    rng = np.random.default_rng(7042)
    for rho in (-2.0, -0.7, 0.3, 1.0, 2.0):
        x = rng.standard_normal(256)
        back = frac_power_apply(frac_power_apply(x, rho, spec), -rho, spec)
        assert np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-300)) < 1e-12


def test_sobolev_norm_zero_vector():
    spec = OperatorSpec()
    for rho in (-1.0, 0.0, 0.5, 2.0):
        assert sobolev_norm([0.0, 0.0, 0.0], rho, spec) == 0.0


def test_sobolev_norm_single_mode():
    assert sobolev_norm([1.0], 0.0, OperatorSpec()) == 1.0


def test_sobolev_norm_half_power():
    spec = OperatorSpec()
    val = sobolev_norm([1.0, 1.0], 0.5, spec)
    assert val == pytest.approx(PI * math.sqrt(5), rel=1e-14)
    assert val == pytest.approx(7.0248, abs=5e-4)


def test_sobolev_norm_matches_frac_power_norm_bitwise():
    spec = OperatorSpec()
    rng = np.random.default_rng(11)
    for rho in (-0.5, 0.25, 1.0):
        x = rng.standard_normal(32)
        direct = sobolev_norm(x, rho, spec)
        via_power = sobolev_norm(frac_power_apply(x, rho, spec), 0.0, spec)
        assert direct == via_power


@pytest.mark.parametrize("rho1,rho2", [(0.0, 0.5), (0.25, 1.0)])
def test_poincare_forward(rho1, rho2):
    # fields supported on modes 1..N satisfy |x|_{rho2} <= lam_N^{rho2-rho1} |x|_{rho1}
    spec = OperatorSpec()
    rng = np.random.default_rng(2026)
    for _ in range(50):
        n = int(rng.integers(1, 65))
        x = rng.standard_normal(n)
        lam_n = eigenvalues(spec, n)[-1]
        lhs = sobolev_norm(x, rho2, spec)
        rhs = lam_n ** (rho2 - rho1) * sobolev_norm(x, rho1, spec)
        assert lhs <= rhs * (1 + 1e-12)


@pytest.mark.parametrize("rho1,rho2", [(0.0, 0.5), (0.25, 1.0)])
def test_poincare_tail(rho1, rho2):
    # fields supported on modes N+1..M satisfy |x|_{rho1} <= lam_{N+1}^{rho1-rho2} |x|_{rho2}
    spec = OperatorSpec()
    rng = np.random.default_rng(2027)
    for _ in range(50):
        n = int(rng.integers(1, 64))
        m = int(rng.integers(n + 1, 129))
        x = np.zeros(m)
        x[n:] = rng.standard_normal(m - n)
        lam_next = eigenvalues(spec, n + 1)[-1]
        lhs = sobolev_norm(x, rho1, spec)
        rhs = lam_next ** (rho1 - rho2) * sobolev_norm(x, rho2, spec)
        assert lhs <= rhs * (1 + 1e-12)


def test_regularity_limit_values():
    assert regularity_limit(0.4, 2.0) == pytest.approx(0.15, abs=1e-15)
    assert regularity_limit(0.8, 2.0) == pytest.approx(0.55, abs=1e-15)
    assert regularity_limit(0.25, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_regularity_limit_rejects_bad_beta():
    with pytest.raises(DomainError):
        regularity_limit(0.5, 0.0)
    with pytest.raises(DomainError):
        regularity_limit(0.5, -1.0)
    # 1 / (2 beta) overflows to inf
    with pytest.raises(DomainError, match="^regularity limit must be finite, got -inf"):
        regularity_limit(0.5, 1e-320)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, None])
def test_regularity_limit_rejects_non_finite_gamma_by_name(gamma):
    with pytest.raises(DomainError, match="^gamma must be "):
        regularity_limit(gamma, 2.0)
