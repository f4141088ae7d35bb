"""Check that two checkouts write the same benchmark reports, byte for byte.

    python3 tools/same_bytes.py PARENT CHANGE --seed N [--work DIR]

The inputs of the three benchmark workloads are generated once, with
PARENT's ``perfbench/inputs.py``, and each two-curve CSV's first curve is
also written alone as an ``x,y`` CSV. One more ``simulate`` config, the
first two-curve one at sigma 0.45 with one redraw allowed, makes replicates
redraw and some of them be rejected, which the benchmark's sigmas (at most
0.06) never do. Each checkout's own ``src`` then runs
in a fresh interpreter: ``propfit fit --format both`` on every two-curve CSV,
once in the default mode and once with each ``--mode`` of ``MODES``, and,
with ``--model saturating_exponential``, on every one-curve CSV, and
``propfit simulate --format json`` on every config at ``--threads 1`` and at
``--threads 8``. The exit code of every call is kept next to the reports.

Reports round their floats to 12 significant digits, so a change in the
last bits of an estimate can hide behind the rounding. Next to each call's
reports, ``<name>.unrounded.json`` therefore holds each report the call
passed, before rounding, to ``propfit.cli.round_floats`` or to
``propfit.cli.dump_json`` (which rounds as it writes), once, whichever it
reached first; what ``round_floats`` returned is not a report. It is
written with Python's shortest round-trip ``repr`` of every float (NaN and
infinities as ``NaN``/``Infinity``), so equal bytes mean equal bits.

Every file that differs, or exists on one side only, is listed, and the
exit status is 1 if there is any. Under a JSON file that differs come the
largest relative difference ``|a - b| / max(|a|, |b|)`` of each float
field (by its key) and every other value that differs, by its path.
Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("simulate_two_curve", "simulate_two_curve_noisy", "fit_two_curve_csv")
THREADS = (1, 8)
# The ``propfit fit --mode`` values each two-curve CSV is also fitted in.
MODES = ("separate", "common-sigma")
# Where the one-curve CSVs cut from the two-curve inputs go, under the inputs.
FIRST_CURVE = "fit_first_curve"
# Where the redrawing simulate config goes, under the inputs.
REDRAWING = "simulate_redrawing"

# Runs the CLI calls given as JSON on stdin with the propfit of ``sys.argv[1]``
# and writes each call's reports before rounding next to its outputs.
RUNNER = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import propfit
from propfit import cli
if Path(propfit.__file__).resolve().parent != Path(sys.argv[1]).resolve() / "propfit":
    sys.exit(f"propfit was imported from {propfit.__file__}")
rounder, writer = cli.round_floats, cli.dump_json
# Every report recorded and every object round_floats returned, by id, kept
# alive so that no id is reused within a call.
unrounded, known, depth = [], {}, [0]

def record(obj):
    if id(obj) not in known:
        known[id(obj)] = obj
        unrounded.append(json.loads(json.dumps(obj)))

def rounding(obj, *args):
    top = not depth[0]  # a report, not one of round_floats' own recursive calls
    if top:
        record(obj)
    depth[0] += 1
    try:
        result = rounder(obj, *args)
    finally:
        depth[0] -= 1
    if top:
        known[id(result)] = result
    return result

def writing(obj, *args):
    record(obj)
    return writer(obj, *args)

cli.round_floats, cli.dump_json = rounding, writing
out, codes = Path(sys.argv[2]).parent, {}
for name, argv in json.load(sys.stdin):
    unrounded.clear()
    known.clear()
    codes[name] = cli.main(argv)
    (out / f"{name}.unrounded.json").write_text(
        json.dumps(unrounded, indent=1, sort_keys=True) + "\\n", encoding="utf-8")
Path(sys.argv[2]).write_text(json.dumps(codes, indent=1, sort_keys=True) + "\\n")
"""


def generate_inputs(parent: Path, seed: int, inputs: Path) -> None:
    for workload in WORKLOADS:
        subprocess.run([sys.executable, str(parent / "perfbench" / "inputs.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", str(inputs / workload)], cwd=parent, check=True)
    pairs = sorted(inputs.glob("*/*.csv"))
    (inputs / FIRST_CURVE).mkdir()
    for path in pairs:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        first = "".join(f"{r['x']},{r['y']}\n" for r in rows if r["curve"] == rows[0]["curve"])
        (inputs / FIRST_CURVE / path.name).write_text("x,y\n" + first, encoding="utf-8")
    config = json.loads((inputs / WORKLOADS[0] / "simulate-000.json").read_text(encoding="utf-8"))
    config["sim"].update(sigma=[0.45], replicates=40, max_redraws=1)
    (inputs / REDRAWING).mkdir()
    (inputs / REDRAWING / "simulate-045.json").write_text(json.dumps(config, indent=2) + "\n",
                                                         encoding="utf-8")


def cli_calls(inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(output name, argv) of every CLI call, outputs under ``out``."""
    calls = []
    for path in sorted(inputs.glob("*/*")):
        name = f"{path.parent.name}/{path.stem}"
        (out / path.parent.name).mkdir(parents=True, exist_ok=True)
        if path.suffix == ".csv":
            fit = ["fit", "--data", str(path), "--format", "both"]
            if path.parent.name == FIRST_CURVE:
                calls.append((name, [*fit, "--model", "saturating_exponential",
                                     "--out", str(out / name)]))
                continue
            calls.append((name, [*fit, "--out", str(out / name)]))
            calls += [(f"{name}.{mode}", [*fit, "--mode", mode, "--out",
                                          str(out / f"{name}.{mode}")]) for mode in MODES]
            continue
        for threads in THREADS:
            calls.append((f"{name}.t{threads}", [
                "simulate", "--config", str(path), "--threads", str(threads),
                "--format", "json", "--out", str(out / f"{name}.t{threads}.json")]))
    return calls


def run_checkout(checkout: Path, inputs: Path, out: Path) -> None:
    calls = cli_calls(inputs, out)
    subprocess.run([sys.executable, "-c", RUNNER, str(checkout / "src"),
                    str(out / "exit_codes.json")],
                   input=json.dumps(calls), text=True, cwd=checkout, check=True)


def differing(a: Path, b: Path) -> list[str]:
    names = sorted({p.relative_to(root).as_posix()
                    for root in (a, b) for p in root.rglob("*") if p.is_file()})
    return [n for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and filecmp.cmp(a / n, b / n, shallow=False))]


def json_differences(a, b) -> tuple[dict[str, float], list[str]]:
    """The largest relative difference of each float field of the JSON values
    ``a`` and ``b`` (by its key; a NaN on one side only counts as inf), and
    each other difference as ``path: a -> b``."""
    floats: dict[str, float] = {}
    others: list[str] = []

    def walk(x, y, path: str, field: str) -> None:
        if isinstance(x, float) and isinstance(y, float):
            if x != y and not (math.isnan(x) and math.isnan(y)):
                rel = abs(x - y) / max(abs(x), abs(y))
                floats[field] = max(floats.get(field, 0.0), math.inf if math.isnan(rel) else rel)
        elif isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            for key in x:
                walk(x[key], y[key], f"{path}.{key}", key)
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, f"{path}[{i}]", field)
        elif x != y or type(x) is not type(y):
            others.append(f"{path or '.'}: {json.dumps(x)} -> {json.dumps(y)}")

    walk(a, b, "", "")
    return floats, others


def describe(parent: Path, change: Path) -> list[str]:
    """The lines :func:`json_differences` gives for two JSON files."""
    floats, others = json_differences(json.loads(parent.read_text(encoding="utf-8")),
                                      json.loads(change.read_text(encoding="utf-8")))
    return ([f"  {field}: max relative difference {rel:.3g}"
             for field, rel in sorted(floats.items())] + [f"  {line}" for line in others])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="checkout whose inputs and reports are the reference")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    parser.add_argument("--seed", type=int, required=True, help="benchmark input seed")
    parser.add_argument("--work", type=Path,
                        help="directory kept for inputs and reports (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        # Resolved here: the inputs are generated with the parent checkout as cwd.
        work = args.work.resolve() if args.work else Path(tmp)
        inputs, out = work / "inputs", work / "out"
        generate_inputs(args.parent.resolve(), args.seed, inputs)
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            run_checkout(checkout.resolve(), inputs, out / side)
        diff = differing(out / "parent", out / "change")
        compared = sum(1 for p in (out / "parent").rglob("*") if p.is_file())
        lines = []
        for name in diff:
            lines.append(f"differs: {name}")
            a, b = out / "parent" / name, out / "change" / name
            if name.endswith(".json") and a.is_file() and b.is_file():
                lines += describe(a, b)
    for line in lines:
        print(line)
    print(f"{len(diff)} of {compared} files differ (seed {args.seed})")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
