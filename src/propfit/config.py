"""Run configuration: a strict JSON document driving fits and simulations.

The schema (packaged under ``propfit/schemas/``) rejects unknown keys so a
typo cannot silently corrupt a study. Defaults applied here are documented
in the README.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import jsonschema
import numpy as np

from .equivalent_dose import partial_bleach_model
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
    mode: str = "default"
    gamma_bracket: tuple[float, float] | None = None
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
                reject_nonpositive=bool(sim.get("reject_nonpositive", True)),
                start=sim.get("start", "theta0"),
                fit_mode=self.mode,
                fit_options=self.fit_options,
                gamma_bracket=self.gamma_bracket,
                max_redraws=int(sim.get("max_redraws", 100)),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@functools.cache
def _config_validator():
    """The config schema's validator, checked and built on first use only."""
    schema = load_schema("config")
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def parse_config(document: dict) -> RunConfig:
    """Validate a raw JSON document and apply defaults."""
    # The error jsonschema.validate would raise, without re-checking the schema.
    exc = jsonschema.exceptions.best_match(_config_validator().iter_errors(document))
    if exc is not None:
        where = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"invalid config at {where}: {exc.message}") from None

    methods = document.get("methods", "all")
    if methods == "all":
        methods = METHODS
    else:
        methods = tuple(methods)

    fit_section = document.get("fit", {})
    start = fit_section.get("start", "auto")
    if not isinstance(start, str):
        start = np.asarray(start, dtype=float)
    fit_options = FitOptions(
        tol_residual=float(fit_section.get("tol_residual", 1e-8)),
        tol_absolute=float(fit_section.get("tol_absolute", 1e-10)),
        max_iter=int(fit_section.get("max_iter", 100)),
        start=start,
    )

    sim = document.get("sim")
    if sim is not None and "x1" not in sim:
        raise ConfigError("sim section requires x1 (dose grid)")

    bracket = document.get("gamma_bracket")
    return RunConfig(
        model=document.get("model", "saturating_exponential"),
        methods=methods,
        mode=document.get("mode", "default"),
        gamma_bracket=None if bracket is None else (float(bracket[0]), float(bracket[1])),
        fit_options=fit_options,
        sim=sim,
        output_format=document.get("output", {}).get("format", "text"),
    )


def load_config(path) -> RunConfig:
    """Read, validate, and default-fill a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigError("config must be a JSON object")
    return parse_config(document)
