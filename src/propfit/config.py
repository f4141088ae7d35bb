"""Run configuration: a strict JSON document driving fits and simulations.

The schema (packaged under ``propfit/schemas/``) rejects unknown keys so a
typo cannot silently corrupt a study. A key the document leaves out takes
the default of the field it sets (:class:`RunConfig`, :class:`FitOptions`
or :class:`SimDesign`); the README documents them.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .equivalent_dose import MODE_DEFAULT, partial_bleach_model
from .estimators import METHODS, FitOptions
from .exceptions import ConfigError
from .models import get_model
from .simulation import SimDesign

TWO_CURVE_MODEL = "partial_bleach"


def load_schema(name: str) -> dict:
    """Load one of the packaged JSON schemas (config, fit_report, sim_report)."""
    path = resources.files("propfit.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with defaults applied."""

    model: str = "saturating_exponential"
    methods: tuple[str, ...] = METHODS
    mode: str = MODE_DEFAULT
    fit_options: FitOptions = field(default_factory=FitOptions)
    sim: dict | None = None
    output_format: str = "text"

    @property
    def two_curve(self) -> bool:
        return self.model == TWO_CURVE_MODEL

    def build_model(self):
        return partial_bleach_model() if self.two_curve else get_model(self.model)

    def build_design(self) -> SimDesign:
        if self.sim is None:
            raise ConfigError("configuration has no 'sim' section")
        sim = self.sim
        model = self.build_model()
        theta0 = np.asarray(sim["theta0"], dtype=float)
        if theta0.size != model.p:
            raise ConfigError(
                f"sim.theta0 must have {model.p} entries for model {self.model!r}, "
                f"got {theta0.size}"
            )
        if self.two_curve:
            if "x2" not in sim:
                raise ConfigError("two-curve simulation requires sim.x2")
            x1, x2 = sim["x1"], sim["x2"]
        else:
            if "x2" in sim:
                raise ConfigError("sim.x2 is only valid for the two-curve model")
            x1, x2 = sim["x1"], None
        casts = {"start": str, "max_redraws": int}
        optional = {key: cast(sim[key]) for key, cast in casts.items() if key in sim}
        try:
            return SimDesign(
                model=model,
                x1=np.asarray(x1, dtype=float),
                x2=None if x2 is None else np.asarray(x2, dtype=float),
                theta0=theta0,
                sigma_grid=tuple(sim["sigma"]),
                replicates=int(sim["replicates"]),
                master_seed=int(sim.get("seed", 0)),
                methods=self.methods,
                fit_mode=self.mode,
                fit_options=self.fit_options,
                **optional,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@functools.cache
def _config_validator():
    """The config schema's validator, checked and built on first use only
    (jsonschema is imported here: a command without a config never loads it)."""
    import jsonschema

    schema = load_schema("config")
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def parse_config(document: dict) -> RunConfig:
    """Validate a raw JSON document and apply defaults."""
    from jsonschema.exceptions import best_match

    # The error jsonschema.validate would raise, without re-checking the schema.
    exc = best_match(_config_validator().iter_errors(document))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"invalid config at {where}: {exc.message}") from None

    fields = {key: document[key] for key in ("model", "mode") if key in document}
    if document.get("methods", "all") != "all":
        fields["methods"] = tuple(document["methods"])
    if "format" in document.get("output", {}):
        fields["output_format"] = document["output"]["format"]

    fit_section = document.get("fit", {})
    casts = {"tol_residual": float, "max_iter": int}
    options = {key: cast(fit_section[key]) for key, cast in casts.items() if key in fit_section}
    if "start" in fit_section:
        start = fit_section["start"]
        options["start"] = start if isinstance(start, str) else np.asarray(start, dtype=float)

    sim = document.get("sim")
    if sim is not None and "x1" not in sim:
        raise ConfigError("sim section requires x1 (dose grid)")
    return RunConfig(fit_options=FitOptions(**options), sim=sim, **fields)


def _finite(text: str) -> float | int:
    """A JSON number, an integer kept as one; ``NaN``, ``Infinity`` and
    numbers beyond the float range raise."""
    if not np.isfinite(value := float(text)):
        raise ConfigError(f"config holds a non-finite number: {text}")
    return int(text) if text.lstrip("-").isdigit() else value


def load_config(path) -> RunConfig:
    """Read, validate, and default-fill a configuration file (a leading UTF-8
    byte-order mark is dropped)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            document = json.load(handle, parse_constant=_finite, parse_float=_finite,
                                 parse_int=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigError("config must be a JSON object")
    return parse_config(document)
