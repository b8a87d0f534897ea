import math

import numpy as np
import pytest
from scipy.integrate import quad

from spde_drift.errors import ConfigurationError, DomainError
from spde_drift.theory import (
    STATUS_CONSISTENT,
    STATUS_NORMAL,
    STATUS_NOT_COVERED,
    STATUS_RATE,
    AdvisorQuery,
    advise,
    asymptotic_constants,
    ou_moment_oracle,
)

PI = math.pi


def test_variance_simplifies_at_alpha_equals_gamma():
    for theta, gamma, t_final, lam in [(0.1, 0.5, 1.0, PI**2), (0.7, 1.2, 2.5, 4.0)]:
        c = asymptotic_constants(theta, t_final, lam, beta=2.0, gamma=gamma, alpha=gamma)
        assert c.variance == pytest.approx(2 * theta * 3.0 / (t_final * lam), rel=1e-14)


def test_reference_variance_value():
    c = asymptotic_constants(0.02, 1.0, PI**2, beta=2.0, gamma=0.4, alpha=0.4)
    assert c.variance == pytest.approx(0.0121585, abs=2e-7)
    assert c.rate_exponent == 1.5


def test_reference_c_mean_value():
    c = asymptotic_constants(0.1, 1.0, PI**2, beta=2.0, gamma=0.5, alpha=0.5)
    assert c.c_mean == pytest.approx(PI**2 / 0.6, rel=1e-14)
    assert c.c_mean == pytest.approx(16.4493, abs=2e-4)


def test_inadmissible_alpha_rejected_by_name():
    with pytest.raises(DomainError, match=r"alpha > gamma - \(1\+1/beta\)/8"):
        asymptotic_constants(0.1, 1.0, PI**2, beta=2.0, gamma=0.5, alpha=0.3)


@pytest.mark.parametrize("call, args, name", [
    (asymptotic_constants, (1e300, 1.0, PI**2, 2.0, 0.5, 0.5), "c_var"),  # theta**3 overflows
    (asymptotic_constants, (1e-300, 1.0, PI**2, 2.0, 0.5, 0.5), "c_var"),  # theta**3 is 0
    (asymptotic_constants, (0.1, 1.0, PI**2, 2.0, 0.5, 1e6), "c_mean"),
    (asymptotic_constants, (0.1, 1e-320, PI**2, 2.0, 0.5, 0.5), "variance"),
    (ou_moment_oracle, (0.1, 200.0, 1e-3, 1.0), "stationary"),
    (ou_moment_oracle, (1e-300, 0.5, 1.0, 1.0), "var_integral_leading"),
], ids=["theta-1e300", "theta-1e-300", "alpha-1e6", "T-1e-320", "oracle-lam-1e-3",
        "oracle-theta-1e-300"])
def test_constants_outside_the_float_range_are_rejected_by_name(call, args, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite, got inf"):
        call(*args)


def test_variance_minimal_at_alpha_equals_gamma():
    theta, t_final, lam, beta, gamma = 0.05, 1.0, PI**2, 2.0, 0.7
    lo = gamma - (1 + 1 / beta) / 8 + 0.01
    grid = np.linspace(lo, gamma + 2.0, 241)
    vals = [
        asymptotic_constants(theta, t_final, lam, beta, gamma, a).variance
        for a in grid
    ]
    argmin = grid[int(np.argmin(vals))]
    nearest = grid[int(np.argmin(np.abs(grid - gamma)))]
    assert argmin == nearest


def test_rate_exponents_per_example():
    rd = advise(AdvisorQuery("reaction_diffusion", gamma=1.3, alpha=1.3, n=1, m_f=3,
                             m_f_odd=True, leading_coeff_negative=True))
    assert rd.estimators["full"].rate == 1.5
    bu = advise(AdvisorQuery("burgers", gamma=0.8, alpha=0.8))
    assert bu.estimators["full"].rate == 1.5
    ch = advise(AdvisorQuery("cahn_hilliard", gamma=0.5, alpha=0.5, n=1))
    assert ch.estimators["full"].rate == 2.5
    assert ch.beta == 4.0


def test_ou_oracle_against_quadrature():
    # independent oracle: numerically integrate cov(t, t) over [0, T]
    theta, gamma, lam, t_final = 0.1, 0.5, PI**2, 1.0
    oracle = ou_moment_oracle(theta, gamma, lam, t_final)
    val, err = quad(lambda t: oracle.cov(t, t), 0.0, t_final, limit=200)
    assert err < 1e-12
    assert oracle.mean_integral == pytest.approx(val, rel=1e-10)
    assert oracle.mean_integral == pytest.approx(0.02893812, abs=2e-7)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="theta must be finite"):
            ou_moment_oracle(bad, gamma, lam, t_final)
        with pytest.raises(DomainError, match="t_final must be finite"):
            ou_moment_oracle(theta, gamma, lam, bad)


def test_ou_oracle_stationary_limits():
    theta, gamma, lam = 0.1, 0.5, PI**2
    stationary = lam ** (-(2 * gamma + 1)) / (2 * theta)
    long_run = ou_moment_oracle(theta, gamma, lam, 2000.0)
    assert long_run.mean_integral / 2000.0 == pytest.approx(stationary, rel=1e-3)
    assert long_run.cov(400.0, 400.0) == pytest.approx(stationary, rel=1e-12)
    assert long_run.var_integral_leading == pytest.approx(
        2000.0 * lam ** (-(4 * gamma + 3)) / (2 * theta**3), rel=1e-14
    )


def test_ou_oracle_monotonicity():
    theta, lam = 0.2, PI**2
    ts = [0.5, 1.0, 2.0, 4.0]
    vals = [ou_moment_oracle(theta, 0.5, lam, t).mean_integral for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    gammas = [0.3, 0.5, 0.8, 1.2]
    vals_g = [ou_moment_oracle(theta, g, lam, 1.0).mean_integral for g in gammas]
    assert all(b < a for a, b in zip(vals_g, vals_g[1:]))


def test_advise_matches_asymptotic_constants_reaction_diffusion():
    rng = np.random.default_rng(20)
    for _ in range(25):
        theta = float(rng.uniform(0.01, 2.0))
        gamma = float(rng.uniform(0.2, 2.0))
        t_final = float(rng.uniform(0.5, 3.0))
        alpha = gamma + float(rng.uniform(-0.15, 1.0))
        if alpha <= gamma - 3.0 / 16.0:
            continue
        adv = advise(AdvisorQuery(
            "reaction_diffusion", gamma=gamma, alpha=alpha, n=1, m_f=3,
            theta=theta, t_final=t_final,
        ))
        c = asymptotic_constants(theta, t_final, PI**2, 2.0, gamma, alpha)
        assert abs(adv.estimators["full"].variance - c.variance) <= 1e-12 * c.variance


def test_advise_burgers_matches_asymptotic_constants():
    adv = advise(AdvisorQuery("burgers", gamma=0.8, alpha=0.9, theta=0.3, t_final=2.0))
    c = asymptotic_constants(0.3, 2.0, PI**2, 2.0, 0.8, 0.9)
    assert adv.estimators["full"].variance == pytest.approx(c.variance, rel=1e-13)


def test_advise_golden_reaction_diffusion_all_normal():
    adv = advise(AdvisorQuery(
        "reaction_diffusion", gamma=1.3, alpha=1.3, n=1, m_f=3,
        m_f_odd=True, leading_coeff_negative=True,
    ))
    assert adv.all_hypotheses_hold
    for variant in ("full", "partial", "linear"):
        assert adv.estimators[variant].status == STATUS_NORMAL
        assert adv.estimators[variant].rate == 1.5


def test_advise_golden_burgers():
    adv = advise(AdvisorQuery("burgers", gamma=0.8, alpha=0.8))
    assert adv.estimators["full"].status == STATUS_NORMAL
    assert adv.estimators["full"].rate == 1.5
    for variant in ("partial", "linear"):
        assert adv.estimators[variant].status == STATUS_RATE
        assert adv.estimators[variant].rate == 1.0


def test_advise_golden_reaction_diffusion_2d():
    adv = advise(AdvisorQuery(
        "reaction_diffusion", gamma=1.6, alpha=1.6, n=2, m_f=3,
        m_f_odd=True, leading_coeff_negative=True,
    ))
    assert adv.estimators["full"].status == STATUS_NORMAL
    assert adv.estimators["full"].rate == 1.0
    for variant in ("partial", "linear"):
        assert adv.estimators[variant].status == STATUS_RATE
        assert adv.estimators[variant].rate == 1.0  # optimal rate (beta+1)/2


def test_advise_burgers_low_gamma_reports_failed_hypothesis():
    adv = advise(AdvisorQuery("burgers", gamma=0.3, alpha=0.3))
    failed = [name for name, ok in adv.hypotheses if not ok]
    assert any("gamma > 1/2" in name for name in failed)
    assert all(e.status == STATUS_NOT_COVERED for e in adv.estimators.values())


@pytest.mark.parametrize("query, failed", [
    (AdvisorQuery("reaction_diffusion", gamma=0.8, alpha=0.1, m_f=3), "alpha > gamma - (n+2)/16"),
    (AdvisorQuery("cahn_hilliard", gamma=0.3, alpha=0.3, n=3), "gamma > 10/24"),
], ids=["reaction-diffusion-low-alpha", "cahn-hilliard-3d-low-gamma"])
def test_advice_with_a_failed_hypothesis_covers_no_estimator(query, failed):
    adv = advise(query)
    (name,) = [name for name, ok in adv.hypotheses if not ok]
    assert name.startswith(failed)
    assert all(e.status == STATUS_NOT_COVERED for e in adv.estimators.values())
    assert all(e.rate is None and e.variance is None for e in adv.estimators.values())
    if query.example == "reaction_diffusion":
        # the alpha test and the assumed regularity; the note says it is assumed
        assert len(adv.hypotheses) == 2
        assert adv.notes and "assumption" in adv.notes[0]


@pytest.mark.parametrize("example, n, written, cut", [
    ("burgers", 1, "3/16", 3 / 16), ("cahn_hilliard", 1, "(n+4)/32", 5 / 32),
    ("cahn_hilliard", 2, "(n+4)/32", 6 / 32), ("cahn_hilliard", 3, "(n+4)/32", 7 / 32),
])
def test_advisors_state_the_paper_admissibility_threshold(example, n, written, cut):
    # both read admissibility_threshold(gamma, beta), which is the paper's
    # gamma - 3/16 (beta = 2) and gamma - (n+4)/32 (beta = 4/n) bit for bit:
    # the hypothesis text, and where alpha crosses it
    for gamma in np.linspace(0.05, 3.0, 60):
        threshold = float(gamma) - cut
        for alpha in (threshold, float(np.nextafter(threshold, np.inf))):
            adv = advise(AdvisorQuery(example, gamma=float(gamma), alpha=alpha, n=n))
            assert (f"alpha > gamma - {written} = {threshold}", alpha > threshold) in (
                adv.hypotheses)


def test_advise_reaction_diffusion_general_case_consistent():
    adv = advise(AdvisorQuery("reaction_diffusion", gamma=0.6, alpha=0.6, n=1, m_f=4))
    assert adv.estimators["full"].status == STATUS_NORMAL
    assert adv.estimators["partial"].status == STATUS_CONSISTENT
    assert adv.estimators["linear"].status == STATUS_CONSISTENT


def test_advise_reaction_diffusion_higher_degree_rates():
    # n=1, odd degree 9 with negative leading coefficient: the truncated-bias
    # route stays normal while the bias-free route only has a rate bound
    adv = advise(AdvisorQuery(
        "reaction_diffusion", gamma=1.4, alpha=1.4, n=1, m_f=9,
        m_f_odd=True, leading_coeff_negative=True,
    ))
    assert adv.estimators["partial"].status == STATUS_NORMAL
    assert adv.estimators["linear"].status == STATUS_RATE
    assert adv.estimators["linear"].rate == pytest.approx(2 * (0.5 + 2.0 / 9.0))


def test_advise_cahn_hilliard_partial_upgrade():
    low = advise(AdvisorQuery("cahn_hilliard", gamma=0.2, alpha=0.2, n=1))
    assert low.estimators["partial"].rate == pytest.approx(4.0 / 3.0)
    high = advise(AdvisorQuery("cahn_hilliard", gamma=0.3, alpha=0.3, n=1))
    assert high.estimators["partial"].rate == pytest.approx(2.0)
    assert high.estimators["linear"].rate == pytest.approx(4.0 / 3.0)


def test_advisor_query_validation():
    with pytest.raises(ConfigurationError):
        AdvisorQuery("navier_stokes", gamma=1.0, alpha=1.0)
    with pytest.raises(ConfigurationError):
        AdvisorQuery("burgers", gamma=1.0, alpha=1.0, n=2)
    with pytest.raises(ConfigurationError):
        AdvisorQuery("cahn_hilliard", gamma=1.0, alpha=1.0, n=4)
    with pytest.raises(ConfigurationError):
        AdvisorQuery("reaction_diffusion", gamma=1.0, alpha=1.0, n=1)  # m_f missing


def test_advice_json_shape():
    adv = advise(AdvisorQuery("burgers", gamma=0.8, alpha=0.8))
    d = adv.to_json_dict()
    assert set(d) == {"example", "beta", "hypotheses", "estimators", "notes"}
    assert set(d["estimators"]) == {"full", "partial", "linear"}
    assert set(d["estimators"]["full"]) == {"status", "rate", "V"}
    assert all(set(h) == {"name", "satisfied"} for h in d["hypotheses"])
