"""Count the settings a user of propfit can set, one per line, then the total.

    python3 tools/count_options.py [ROOT] [--max N]

ROOT is a checkout (default: the one holding this script); its
``src/propfit`` is imported in this interpreter. With ``--max N`` the exit
status is 1 when the total is above N. A setting is each of

* ``parameter``: a parameter with a default, or a ``*args``/``**kwargs``,
  of a public function or class of a public propfit module (the names in
  ``propfit.__all__`` among them) or of such a class's public method; a
  class's own constructor counts under the class's name;
* ``either``: a parameter named ``<a>_or_<b>``, whose caller chooses which
  of two kinds of value to pass;
* ``field``: a field with a default of ``FitOptions``, ``SimDesign`` or
  ``RunConfig`` (one the constructor already counted is not repeated);
* ``config``: a leaf key of ``schemas/config.schema.json``, as a dotted path;
* ``flag``: an optional flag of a ``propfit`` subcommand;
* ``env``: a ``PROPFIT_*`` environment variable named in ``src/propfit``.

Each is printed as ``<kind> <module>.<name>``. Only the standard library and
propfit are used, and nothing is written: bytecode caches are off.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

sys.dont_write_bytecode = True
_parser = argparse.ArgumentParser(description="Count the settings a user of propfit can set.")
_parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                     help="the checkout to count (default: the one holding this script)")
_parser.add_argument("--max", type=int, default=None,
                     help="exit 1 when the total is above this")
ARGS = _parser.parse_args()
ROOT = ARGS.root
PACKAGE = ROOT / "src" / "propfit"
sys.path.insert(0, str(ROOT / "src"))

import propfit  # noqa: E402
from propfit.cli import build_parser  # noqa: E402
from propfit.config import RunConfig  # noqa: E402

if Path(propfit.__file__).resolve().parent != PACKAGE.resolve():
    sys.exit(f"propfit was imported from {propfit.__file__}")

OPTIONAL = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)


def _name(obj) -> str:
    return f"{obj.__module__.removeprefix('propfit.')}.{obj.__qualname__}"


def _own(obj) -> bool:
    """Whether ``obj`` is defined in propfit (not inherited from Python)."""
    return getattr(obj, "__module__", "").startswith("propfit")


def _settings(label: str, func) -> list[tuple[str, str]]:
    """``(kind, label.name)`` of each parameter of ``func`` that is a setting."""
    out = []
    for name, par in inspect.signature(func).parameters.items():
        if par.default is not inspect.Parameter.empty or par.kind in OPTIONAL:
            out.append(("parameter", f"{label}.{name}"))
        elif "_or_" in name:
            out.append(("either", f"{label}.{name}"))
    return out


def public_objects() -> dict[str, object]:
    """The public functions and classes defined in propfit's public modules,
    by name (one a public module imports from a private one is left out)."""
    modules = [propfit] + [importlib.import_module(f"propfit.{path.stem}")
                           for path in sorted(PACKAGE.glob("*.py"))
                           if not path.stem.startswith("_")]
    found = {}
    for module in modules:
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and _own(obj) and not _name(obj).startswith("_")):
                found[_name(obj)] = obj
    return dict(sorted(found.items()))


def parameters() -> list[tuple[str, str]]:
    out = []
    for name, obj in public_objects().items():
        if inspect.isfunction(obj):
            out += _settings(name, obj)
            continue
        if _own(obj.__init__):
            out += _settings(name, obj)
        for method, member in inspect.getmembers(obj, inspect.isroutine):
            if not method.startswith("_") and _own(member):
                out += _settings(f"{name}.{method}", member)
    return out


def fields() -> list[tuple[str, str]]:
    return [("field", f"{_name(cls)}.{f.name}")
            for cls in (propfit.FitOptions, propfit.SimDesign, RunConfig)
            for f in dataclasses.fields(cls)
            if f.init and (f.default is not dataclasses.MISSING
                           or f.default_factory is not dataclasses.MISSING)]


def config_keys(schema: dict, prefix: str = "") -> list[str]:
    out = []
    for key, sub in schema.get("properties", {}).items():
        path = prefix + key
        out += config_keys(sub, path + ".") if "properties" in sub else [path]
    return out


def flags() -> list[str]:
    out = []
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                out += [f"propfit {command} {max(a.option_strings, key=len)}"
                        for a in sub._actions
                        if a.option_strings and not a.required
                        and not isinstance(a, argparse._HelpAction)]
    return out


def env_vars() -> list[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        names.update(re.findall(r"""["'](PROPFIT_[A-Z0-9_]+)["']""", path.read_text("utf-8")))
    return sorted(names)


def main() -> int:
    schema = json.loads((PACKAGE / "schemas" / "config.schema.json").read_text("utf-8"))
    seen: dict[str, str] = {}
    for kind, name in (parameters() + fields()
                       + [("config", k) for k in config_keys(schema)]
                       + [("flag", f) for f in flags()] + [("env", e) for e in env_vars()]):
        seen.setdefault(name, kind)
    for name, kind in seen.items():
        print(f"{kind:<10} {name}")
    print(f"total {len(seen)}")
    if ARGS.max is not None and len(seen) > ARGS.max:
        print(f"more than --max {ARGS.max} settings", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
