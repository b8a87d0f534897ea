"""Flat INI-style run configuration.

Sections [model], [scheme], [estimators] and optionally [study] mirror the
corresponding spec dataclasses field for field (snake_case); a key left out
takes its field's default.  One table per section names each key's
converter.  Unknown sections or keys, and keys that the chosen model does
not read, are rejected by name; value validation happens in the spec
constructors and names the offending field.  A file that is not UTF-8 INI
syntax is rejected with its line number.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import MISSING, dataclass, fields

from .errors import ConfigurationError
from .estimate import COUPLED_VARIANTS, NUMERATOR_MODES, SCALAR_VARIANTS, EstimatorRequest
from .fields import VARIANTS, FHNParams, NonlinearitySpec
from .mc import StudySpec
from .simulate import BACKENDS, ModelSpec, SchemeSpec
from .spectrum import OperatorSpec


def _items(convert):
    """A converter of a comma- or space-separated list."""
    return lambda text: tuple(convert(tok) for tok in text.replace(",", " ").split())


def _choice(choices):
    """A converter that passes only one of ``choices``."""

    def convert(text):
        if text not in choices:
            raise ValueError(text)
        return text

    return convert, f"must be one of {', '.join(choices)}; got "


# each key's converter and the message, before the value, for one it rejects
_NUMBER = (float, "not a number: ")
_INTEGER = (int, "not an integer: ")
_NUMBERS = (_items(float), "not a list of numbers: ")
_INTEGERS = (_items(int), "not a list of integers: ")
_TEXT = (str, None)
_WORDS = (_items(str), None)

_SECTIONS = {
    "model": {
        "kind": _TEXT, "domain_length": _NUMBER, "theta_true": _NUMBER,
        "gamma": _NUMBER, "nonlinearity": _choice(VARIANTS), "poly_coeffs": _NUMBERS,
        "initial_modes": _NUMBERS, "initial_w_modes": _NUMBERS, "n_sim": _INTEGER,
        "a": _NUMBER, "b": _NUMBER, "epsilon": _NUMBER, "sigma": _NUMBER,
        "sigma_w": _NUMBER, "gamma_w": _NUMBER,
    },
    "scheme": {
        "dt": _NUMBER, "t_final": _NUMBER, "seed": _INTEGER, "snapshot_stride": _INTEGER,
        "backend": _choice(BACKENDS), "noise_scale": _NUMBER,
    },
    "estimators": {
        "alpha": _NUMBER, "n_list": _INTEGERS, "variants": _WORDS,
        "bias_model": _choice(("model", "none", "polynomial")),
        "bias_poly_coeffs": _NUMBERS, "numerator_mode": _choice(NUMERATOR_MODES),
    },
    "study": {
        "n_trials": _INTEGER, "histogram_n": _INTEGER, "histogram_bin_width": _NUMBER,
        "histogram_range": _NUMBERS,
    },
}

_FHN_KEYS = tuple(f.name for f in fields(FHNParams)) + ("initial_w_modes",)


@dataclass
class RunConfig:
    model: ModelSpec
    scheme: SchemeSpec
    est_req: EstimatorRequest
    study: StudySpec | None


def _fail(section: str, key: str, message: str):
    raise ConfigurationError(f"[{section}] {key}: {message}")


def _values(section: str, raw) -> dict:
    """The keys set in ``raw``, each converted by its entry in the table."""
    values = {}
    for key, text in raw.items():
        convert, bad = _SECTIONS[section][key]
        text = text.strip()
        try:
            values[key] = convert(text)
        except ValueError:
            _fail(section, key, f"{bad}{text!r}")
    return values


def _required(section: str, values: dict, key: str):
    if key not in values:
        _fail(section, key, "required key missing")
    return values[key]


def _spec(cls, section: str, values: dict, **given):
    """``cls`` from ``given`` and the ``values`` named like its other fields;
    a field that neither sets takes its default, or is a required key."""
    for f in fields(cls):
        if f.name not in given and (f.name in values or f.default is MISSING):
            given[f.name] = _required(section, values, f.name)
    return cls(**given)


def _reject_unread(section: str, values: dict, keys, reader: str):
    """Fail on the first of ``keys`` that is set but only read by ``reader``."""
    for key in keys:
        if key in values:
            _fail(section, key, f"only read when {reader}")


def _model(values: dict) -> ModelSpec:
    variant = values.get("nonlinearity", NonlinearitySpec.variant)
    if variant != "polynomial":
        _reject_unread("model", values, ("poly_coeffs",), "nonlinearity = polynomial")
    else:
        _required("model", values, "poly_coeffs")
    if variant != "fhn":
        _reject_unread("model", values, _FHN_KEYS, "nonlinearity = fhn")
    fhn = _spec(FHNParams, "model", values) if variant == "fhn" else None
    return _spec(
        ModelSpec, "model", {"initial_modes": (0.0,), **values},
        operator=_spec(OperatorSpec, "model", values),
        nonlinearity=NonlinearitySpec(variant, values.get("poly_coeffs"), fhn),
    )


def _estimators(values: dict, coupled: bool) -> EstimatorRequest:
    bias = values.get("bias_model", "model")
    if bias != "polynomial":
        _reject_unread(
            "estimators", values, ("bias_poly_coeffs",), "bias_model = polynomial"
        )
    else:
        _required("estimators", values, "bias_poly_coeffs")
    default_variants = COUPLED_VARIANTS if coupled else SCALAR_VARIANTS
    return _spec(
        EstimatorRequest, "estimators", {"variants": default_variants, **values},
        bias_model=None if bias == "model" else NonlinearitySpec(
            bias, values.get("bias_poly_coeffs")
        ),
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
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
    for required in ("model", "scheme", "estimators"):
        if required not in parser:
            raise ConfigurationError(f"missing config section [{required}]")

    model = _model(_values("model", parser["model"]))
    scheme = _spec(SchemeSpec, "scheme", _values("scheme", parser["scheme"]))
    est_req = _estimators(
        _values("estimators", parser["estimators"]),
        coupled=model.nonlinearity.variant == "fhn",
    )
    study = None
    if "study" in parser:
        values = _values("study", parser["study"])
        if "histogram_range" in values and len(values["histogram_range"]) != 2:
            _fail("study", "histogram_range", "needs exactly two numbers")
        study = _spec(
            StudySpec, "study", values, model=model, scheme=scheme, est_req=est_req
        )
    return RunConfig(model=model, scheme=scheme, est_req=est_req, study=study)
