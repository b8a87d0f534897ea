"""What ``load_config`` reads: every fault class with its exact message, and
the defaults of a file that sets only the required keys."""

import pytest

from spde_drift.config import RunConfig, load_config
from spde_drift.errors import ConfigurationError
from spde_drift.estimate import COUPLED_VARIANTS, EstimatorRequest
from spde_drift.fields import FHNParams, NonlinearitySpec
from spde_drift.mc import StudySpec
from spde_drift.simulate import ModelSpec, SchemeSpec
from spde_drift.spectrum import OperatorSpec

#: every required key of every section, and nothing else
REQUIRED = {
    "model": {"theta_true": "0.1", "gamma": "0.5", "n_sim": "8"},
    "scheme": {"dt": "0.01", "t_final": "0.5", "seed": "3"},
    "estimators": {"alpha": "0.5", "n_list": "2, 4"},
    "study": {"n_trials": "4"},
}

POLYNOMIAL = {"nonlinearity": "polynomial", "poly_coeffs": "0, 1, 0, -1"}
FHN = {"nonlinearity": "fhn", "a": "0.2", "b": "0.5", "epsilon": "0.1"}


def _write(tmp_path, sections) -> str:
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def _edit(section, drop=(), **keys):
    """REQUIRED with ``keys`` set and ``drop`` left out of ``section``."""
    sections = {name: dict(keys_) for name, keys_ in REQUIRED.items()}
    sections[section].update(keys)
    for key in drop:
        del sections[section][key]
    return sections


def _without(section):
    return {name: keys for name, keys in REQUIRED.items() if name != section}


@pytest.mark.parametrize("sections, message", [
    (_edit("model", drop=["theta_true"]), "[model] theta_true: required key missing"),
    (_edit("scheme", drop=["dt"]), "[scheme] dt: required key missing"),
    (_edit("estimators", drop=["alpha"]), "[estimators] alpha: required key missing"),
    (_edit("study", drop=["n_trials"]), "[study] n_trials: required key missing"),
    (_edit("model", nonlinearity="polynomial"), "[model] poly_coeffs: required key missing"),
    (_edit("model", **FHN, drop=["a"]), "[model] a: required key missing"),
    (_edit("estimators", bias_model="polynomial"),
     "[estimators] bias_poly_coeffs: required key missing"),
    (_edit("model", theta_true="x"), "[model] theta_true: not a number: 'x'"),
    (_edit("model", n_sim="1.5"), "[model] n_sim: not an integer: '1.5'"),
    (_edit("model", initial_modes="0.5 y"),
     "[model] initial_modes: not a list of numbers: '0.5 y'"),
    (_edit("estimators", n_list="2 4.5"),
     "[estimators] n_list: not a list of integers: '2 4.5'"),
    (_edit("model", nonlinearity="cubic"),
     "[model] nonlinearity: must be one of none, polynomial, burgers, fhn; got 'cubic'"),
    (_edit("scheme", backend="rk4"),
     "[scheme] backend: must be one of euler, ou_exact; got 'rk4'"),
    (_edit("estimators", bias_model="cubic"),
     "[estimators] bias_model: must be one of model, none, polynomial; got 'cubic'"),
    (_edit("estimators", numerator_mode="ito"),
     "[estimators] numerator_mode: must be one of robust, ito_sum; got 'ito'"),
    (_edit("model", whatever="3"), "unknown key 'whatever' in section [model]"),
    ({**REQUIRED, "extra": {"n": "1"}}, "unknown config section [extra]"),
    (_without("scheme"), "missing config section [scheme]"),
    (_edit("study", histogram_range="-5 0 5"),
     "[study] histogram_range: needs exactly two numbers"),
], ids=lambda case: case if isinstance(case, str) else None)
def test_each_fault_class_has_its_message(sections, message, tmp_path):
    with pytest.raises(ConfigurationError) as err:
        load_config(_write(tmp_path, sections))
    assert str(err.value) == message


def test_a_file_of_required_keys_takes_the_specs_defaults(tmp_path):
    model = ModelSpec(
        operator=OperatorSpec(), theta_true=0.1, gamma=0.5,
        nonlinearity=NonlinearitySpec(), initial_modes=(0.0,), n_sim=8,
    )
    scheme = SchemeSpec(dt=0.01, t_final=0.5, seed=3)
    est_req = EstimatorRequest(alpha=0.5, n_list=(2, 4))
    study = StudySpec(model=model, scheme=scheme, est_req=est_req, n_trials=4)
    assert load_config(_write(tmp_path, REQUIRED)) == RunConfig(
        model=model, scheme=scheme, est_req=est_req, study=study
    )


def test_a_coupled_file_of_required_keys_takes_the_specs_defaults(tmp_path):
    sections = _edit("model", **FHN)
    del sections["study"]
    cfg = load_config(_write(tmp_path, sections))
    assert cfg.model.nonlinearity == NonlinearitySpec(
        "fhn", fhn_params=FHNParams(a=0.2, b=0.5, epsilon=0.1)
    )
    assert cfg.model.initial_w_modes is None
    assert cfg.est_req.variants == COUPLED_VARIANTS
    assert cfg.study is None


@pytest.mark.parametrize("keys, bias_model", [
    ({"bias_model": "none"}, NonlinearitySpec("none")),
    ({"bias_model": "polynomial", "bias_poly_coeffs": "0, 1, 0, -1"},
     NonlinearitySpec("polynomial", poly_coeffs=(0.0, 1.0, 0.0, -1.0))),
], ids=["none", "polynomial"])
def test_a_bias_model_key_sets_the_requests_bias_model(keys, bias_model, tmp_path):
    cfg = load_config(_write(tmp_path, _edit("estimators", **keys)))
    assert cfg.est_req.bias_model == bias_model
