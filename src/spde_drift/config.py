"""Flat INI-style run configuration.

Sections [model], [scheme], [estimators] and optionally [study] mirror the
corresponding spec dataclasses field for field (snake_case).  Unknown
sections or keys, and keys that the chosen model does not read, are rejected
by name; value validation happens in the spec constructors and names the
offending field.  A file that is not UTF-8 INI syntax is rejected with its
line number.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

from .errors import ConfigurationError
from .estimate import COUPLED_VARIANTS, NUMERATOR_MODES, SCALAR_VARIANTS, EstimatorRequest
from .fields import VARIANTS, FHNParams, NonlinearitySpec
from .mc import StudySpec
from .simulate import BACKENDS, ModelSpec, SchemeSpec
from .spectrum import DIRICHLET_LAPLACIAN_1D, OperatorSpec

_MODEL_KEYS = {
    "kind", "domain_length", "theta_true", "gamma", "nonlinearity",
    "poly_coeffs", "initial_modes", "initial_w_modes", "n_sim",
    "a", "b", "epsilon", "sigma", "sigma_w", "gamma_w",
}
_SCHEME_KEYS = {"dt", "t_final", "seed", "snapshot_stride", "backend", "noise_scale"}
_EST_KEYS = {"alpha", "n_list", "variants", "bias_model", "bias_poly_coeffs",
             "numerator_mode"}
_STUDY_KEYS = {"n_trials", "histogram_n", "histogram_bin_width", "histogram_range"}

_SECTIONS = {
    "model": _MODEL_KEYS,
    "scheme": _SCHEME_KEYS,
    "estimators": _EST_KEYS,
    "study": _STUDY_KEYS,
}

_FHN_KEYS = ("a", "b", "epsilon", "sigma", "sigma_w", "gamma_w", "initial_w_modes")


@dataclass
class RunConfig:
    model: ModelSpec
    scheme: SchemeSpec
    est_req: EstimatorRequest
    study: StudySpec | None


def _fail(section: str, key: str, message: str):
    raise ConfigurationError(f"[{section}] {key}: {message}")


class _Section:
    def __init__(self, name: str, raw):
        self.name = name
        self.raw = dict(raw)

    def _get(self, key, required=False):
        if key not in self.raw:
            if required:
                _fail(self.name, key, "required key missing")
            return None
        return self.raw[key].strip()

    def string(self, key, default=None, required=False, choices=None):
        val = self._get(key, required)
        if val is None:
            return default
        if choices is not None and val not in choices:
            _fail(self.name, key, f"must be one of {', '.join(choices)}; got {val!r}")
        return val

    def floatval(self, key, default=None, required=False):
        val = self._get(key, required)
        if val is None:
            return default
        try:
            return float(val)
        except ValueError:
            _fail(self.name, key, f"not a number: {val!r}")

    def intval(self, key, default=None, required=False):
        val = self._get(key, required)
        if val is None:
            return default
        try:
            return int(val)
        except ValueError:
            _fail(self.name, key, f"not an integer: {val!r}")

    def float_list(self, key, default=None, required=False):
        val = self._get(key, required)
        if val is None:
            return default
        try:
            return tuple(float(tok) for tok in val.replace(",", " ").split())
        except ValueError:
            _fail(self.name, key, f"not a list of numbers: {val!r}")

    def int_list(self, key, default=None, required=False):
        val = self._get(key, required)
        if val is None:
            return default
        try:
            return tuple(int(tok) for tok in val.replace(",", " ").split())
        except ValueError:
            _fail(self.name, key, f"not a list of integers: {val!r}")

    def str_list(self, key, default=None):
        val = self._get(key)
        if val is None:
            return default
        return tuple(tok for tok in val.replace(",", " ").split())


def _reject_unread(sec: _Section, keys, reader: str):
    """Fail on the first of ``keys`` that is set but only read by ``reader``."""
    for key in keys:
        if key in sec.raw:
            _fail(sec.name, key, f"only read when {reader}")


def _parse_nonlinearity(sec: _Section) -> NonlinearitySpec:
    variant = sec.string("nonlinearity", default="none", choices=VARIANTS)
    if variant != "polynomial":
        _reject_unread(sec, ("poly_coeffs",), "nonlinearity = polynomial")
    if variant != "fhn":
        _reject_unread(sec, _FHN_KEYS, "nonlinearity = fhn")
    if variant == "polynomial":
        coeffs = sec.float_list("poly_coeffs", required=True)
        return NonlinearitySpec("polynomial", poly_coeffs=coeffs)
    if variant == "fhn":
        params = FHNParams(
            a=sec.floatval("a", required=True),
            b=sec.floatval("b", required=True),
            epsilon=sec.floatval("epsilon", required=True),
            sigma=sec.floatval("sigma", default=1.0),
            sigma_w=sec.floatval("sigma_w", default=0.05),
            gamma_w=sec.floatval("gamma_w", default=1.0),
        )
        return NonlinearitySpec("fhn", fhn_params=params)
    return NonlinearitySpec(variant)


def _parse_model(sec: _Section) -> ModelSpec:
    operator = OperatorSpec(
        kind=sec.string("kind", default=DIRICHLET_LAPLACIAN_1D),
        domain_length=sec.floatval("domain_length", default=1.0),
    )
    return ModelSpec(
        operator=operator,
        theta_true=sec.floatval("theta_true", required=True),
        gamma=sec.floatval("gamma", required=True),
        nonlinearity=_parse_nonlinearity(sec),
        initial_modes=sec.float_list("initial_modes", default=(0.0,)),
        n_sim=sec.intval("n_sim", required=True),
        initial_w_modes=sec.float_list("initial_w_modes", default=None),
    )


def _parse_scheme(sec: _Section) -> SchemeSpec:
    return SchemeSpec(
        dt=sec.floatval("dt", required=True),
        t_final=sec.floatval("t_final", required=True),
        seed=sec.intval("seed", required=True),
        snapshot_stride=sec.intval("snapshot_stride", default=None),
        backend=sec.string("backend", default="euler", choices=BACKENDS),
        noise_scale=sec.floatval("noise_scale", default=1.0),
    )


def _parse_estimators(sec: _Section, coupled: bool) -> EstimatorRequest:
    default_variants = COUPLED_VARIANTS if coupled else SCALAR_VARIANTS
    bias_kind = sec.string(
        "bias_model", default="model", choices=("model", "none", "polynomial")
    )
    if bias_kind != "polynomial":
        _reject_unread(sec, ("bias_poly_coeffs",), "bias_model = polynomial")
    if bias_kind == "model":
        bias = None
    elif bias_kind == "none":
        bias = NonlinearitySpec("none")
    else:
        bias = NonlinearitySpec(
            "polynomial", poly_coeffs=sec.float_list("bias_poly_coeffs", required=True)
        )
    return EstimatorRequest(
        alpha=sec.floatval("alpha", required=True),
        n_list=sec.int_list("n_list", required=True),
        variants=sec.str_list("variants", default=default_variants),
        bias_model=bias,
        numerator_mode=sec.string(
            "numerator_mode", default="robust", choices=NUMERATOR_MODES
        ),
    )


def _parse_study(sec: _Section, model, scheme, est_req) -> StudySpec:
    hist_range = sec.float_list("histogram_range", default=(-5.0, 5.0))
    if len(hist_range) != 2:
        _fail("study", "histogram_range", "needs exactly two numbers")
    return StudySpec(
        model=model,
        scheme=scheme,
        est_req=est_req,
        n_trials=sec.intval("n_trials", required=True),
        histogram_n=sec.intval("histogram_n", default=20),
        histogram_bin_width=sec.floatval("histogram_bin_width", default=0.4),
        histogram_range=(hist_range[0], hist_range[1]),
    )


def _read_ini(path) -> configparser.ConfigParser:
    """Parse the file as UTF-8 INI text, after a byte-order mark if it has
    one; a syntax error names the file and the line.  Values are taken
    literally (no ``%`` interpolation)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start indexes exc.object, the bytes after any byte-order mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigurationError(
            f"{path}, line {line}: not UTF-8 text ({exc.reason})"
        ) from None
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    # newline=None reads \r\n and \r line ends as open() does
    lines = io.StringIO(text, newline=None).readlines()
    try:
        parser.read_file(lines, source=str(path))
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigurationError(
            f"{path}, line {exc.lineno}: no [section] header before {exc.line.strip()!r}"
        ) from None
    except configparser.ParsingError as exc:
        line = exc.errors[0][0]
        content = lines[line - 1].strip()
        raise ConfigurationError(
            f"{path}, line {line}: not a 'key = value' line: {content!r}"
        ) from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigurationError(
            f"{path}, line {exc.lineno}: key {exc.option!r} repeated in "
            f"section [{exc.section}]"
        ) from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigurationError(
            f"{path}, line {exc.lineno}: section [{exc.section}] repeated"
        ) from None
    return parser


def load_config(path) -> RunConfig:
    parser = _read_ini(path)

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        for key in parser[section]:
            if key not in allowed:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
    for required in ("model", "scheme", "estimators"):
        if required not in parser:
            raise ConfigurationError(f"missing config section [{required}]")

    model = _parse_model(_Section("model", parser["model"]))
    scheme = _parse_scheme(_Section("scheme", parser["scheme"]))
    est_req = _parse_estimators(
        _Section("estimators", parser["estimators"]),
        coupled=model.nonlinearity.variant == "fhn",
    )
    study = None
    if "study" in parser:
        study = _parse_study(_Section("study", parser["study"]), model, scheme, est_req)
    return RunConfig(model=model, scheme=scheme, est_req=est_req, study=study)
