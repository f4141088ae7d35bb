"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of input files drawn from the benchmark seed:
``simulate`` configs of the bundled partial-bleach design, or two-curve CSVs
drawn from that design with ``replicate_stream``/``generate_dataset``. The
program under test only ever sees these files.

Run as a script to write one workload's inputs into a directory; the
benchmark times this script in a fresh interpreter to measure set-up (cold
``import propfit`` plus input generation)::

    python3 perfbench/inputs.py --workload simulate_two_curve --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``files`` is the number of input files in one cycle. For ``simulate``
    workloads each file is a config of ``replicates`` replicates per sigma;
    for ``fit`` workloads each file is one two-curve CSV drawn at the first
    sigma. These sizes are benchmark parameters: both sides of a comparison
    run the same ones.
    """

    name: str
    command: str
    sigma: tuple[float, ...]
    files: int
    replicates: int = 1

    def datasets_per_file(self) -> int:
        """Two-curve datasets fitted by one CLI call on one input file."""
        return self.replicates * len(self.sigma) if self.command == "simulate" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate_two_curve", "simulate", (0.01, 0.02, 0.03), files=16, replicates=10),
        Workload("simulate_two_curve_noisy", "simulate", (0.06,), files=16, replicates=30),
        Workload("fit_two_curve_csv", "fit", (0.03,), files=32),
    )
}


def import_propfit():
    """Import propfit from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import propfit

    where = Path(propfit.__file__).resolve().parent
    if where != SRC / "propfit":
        raise ImportError(f"propfit was imported from {where}, not from {SRC / 'propfit'}")
    return propfit


def normalize_seed(seed: int) -> int:
    """Map any integer seed to the non-negative range numpy's seeding accepts."""
    return seed % 2**63


def input_names(workload: Workload) -> list[str]:
    suffix = "json" if workload.command == "simulate" else "csv"
    return [f"{workload.command}-{k:03d}.{suffix}" for k in range(workload.files)]


def _simulate_config(design, workload: Workload, sim_seed: int) -> dict:
    return {
        "model": "partial_bleach",
        "methods": "all",
        "mode": "default",
        "sim": {
            "theta0": [float(v) for v in design.theta0],
            "x1": [float(v) for v in design.x1],
            "x2": [float(v) for v in design.x2],
            "sigma": list(workload.sigma),
            "replicates": workload.replicates,
            "seed": sim_seed,
            "start": "theta0",
        },
        "output": {"format": "json"},
    }


def _two_curve_csv(design, sigma: float, stream) -> str:
    from propfit.simulation import generate_dataset

    alpha, beta = design.model.split(design.theta0)
    d1 = generate_dataset(design.model.curve1, design.x1, alpha, sigma, stream)
    d2 = generate_dataset(design.model.curve2, design.x2, beta, sigma, stream)
    lines = ["curve,x,y"]
    for label, data in (("unbleached", d1), ("bleached", d2)):
        lines += [f"{label},{float(x)!r},{float(y)!r}" for x, y in zip(data.x, data.y)]
    return "\n".join(lines) + "\n"


def generate(workload: Workload, seed: int, out: Path) -> None:
    """Write the workload's input files for ``seed`` into ``out``."""
    import_propfit()
    from propfit.simulation import default_partial_bleach_design, replicate_stream

    design = default_partial_bleach_design()
    seed = normalize_seed(seed)
    out.mkdir(parents=True, exist_ok=True)
    for k, name in enumerate(input_names(workload)):
        path = out / name
        if workload.command == "simulate":
            # One master seed per config; the sigma grid and replicate count are fixed.
            text = json.dumps(_simulate_config(design, workload, seed * workload.files + k),
                              indent=2) + "\n"
        else:
            text = _two_curve_csv(design, workload.sigma[0], replicate_stream(seed, 0, k))
        path.write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
