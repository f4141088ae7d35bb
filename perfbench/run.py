"""propfit benchmark: one workload, timed or traced, with a correctness gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs are generated from ``--seed`` into
``.perfbench_work/NAME/``; every load comes from this one process, which
calls the public CLI entry point ``propfit.cli.main`` in-process with
``--threads 1``, one call at a time (a closed loop with one client).

``--trace 0`` times the CLI calls for ``--seconds`` (at least two full
cycles over the inputs) and reports the end-to-end metrics. ``--trace 1``
runs one cycle untraced and one traced (see ``tracing.py``) and reports the
per-layer metrics. Both check the outputs (see ``gate.py``) and print, as
the last line, one JSON object: ``correct``, ``attempted`` and ``failed``
CLI calls, and ``metrics``. A failed check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gate
from inputs import ROOT, WORKLOADS, Workload, import_propfit, input_names, normalize_seed
from reference import REFERENCE_MS, reference_ms
from tracing import Tracer

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"
# Fresh-interpreter set-ups per run; the median is reported.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Call:
    argv: list[str]
    input: Path
    out: Path
    datasets: int  # two-curve datasets the call fits with every method


def measure_setup(workload: Workload, seed: int, inputs_dir: Path) -> float:
    """Median wall time of a fresh interpreter importing propfit and writing the inputs."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str(inputs_dir)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def build_calls(workload: Workload, inputs_dir: Path, out_dir: Path) -> list[Call]:
    calls = []
    for name in input_names(workload):
        path, out = inputs_dir / name, out_dir / (Path(name).stem + ".out.json")
        if workload.command == "simulate":
            argv = ["simulate", "--config", str(path), "--threads", "1",
                    "--format", "json", "--out", str(out)]
        else:
            argv = ["fit", "--data", str(path), "--format", "json", "--out", str(out)]
        calls.append(Call(argv, path, out, workload.datasets_per_file()))
    return calls


class Client:
    """Sends CLI calls one after another and keeps each input's first output."""

    def __init__(self, cli, calls: list[Call]):
        self.cli = cli  # the module: a traced run wraps cli.main in place
        self.calls = calls
        self.first: dict[int, bytes] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.repeats = 0

    def send(self, index: int) -> float:
        """Run one call; returns its wall time in seconds."""
        call = self.calls[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.cli.main(call.argv)
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.errors.append(f"{call.input.name}: propfit exited with {code}")
            return elapsed
        data = call.out.read_bytes()
        if index not in self.first:
            self.first[index] = data
        else:
            self.repeats += 1
            if data != self.first[index]:
                self.errors.append(f"{call.input.name}: repeated call gave different JSON")
        return elapsed


def check_outputs(workload: Workload, client: Client) -> tuple[list[str], int, int]:
    """Gate the first output of every input; returns (errors, failed ops, attempted ops)."""
    from propfit.config import load_config, load_schema
    from propfit.equivalent_dose import gamma_bias_se

    errors = list(client.errors)
    if client.repeats == 0:
        errors.append("no input was run twice, so determinism was not checked")
    if len(client.first) != len(client.calls):
        return errors + ["some inputs produced no report"], 0, 0
    reports = [json.loads(client.first[i]) for i in range(len(client.calls))]
    if workload.command == "simulate":
        design = load_config(client.calls[0].input).build_design()

        def dose_se(method, sigma):
            return gamma_bias_se(design.model, design.x1, design.x2, design.theta0, sigma,
                                 method, fit_mode=design.mode_for(method)).se

        errors += gate.check_sim_reports(reports, load_schema("sim_report"), dose_se)
        counts = [gate.sim_operations(r) for r in reports]
    else:
        schema = load_schema("fit_report")
        for call, report in zip(client.calls, reports):
            errors += gate.check_fit_report(report, schema, call.input.name)
        counts = [gate.fit_operations(r) for r in reports]
    return errors, sum(f for f, _ in counts), sum(a for _, a in counts)


def scaled_calls(client: Client, more) -> list[tuple[int, float, float, float]]:
    """Send calls cycling over the inputs while ``more(calls made)`` holds.

    The reference kernel runs before the first call and after every call.
    Returns (input index, call seconds, kernel ms before, kernel ms after)
    per call.
    """
    n = len(client.calls)
    kernel = reference_ms()
    calls = []
    while more(len(calls)):
        index = len(calls) % n
        elapsed = client.send(index)
        after = reference_ms()
        calls.append((index, elapsed, kernel, after))
        kernel = after
    return calls


def scaled(elapsed: float, before_ms: float, after_ms: float) -> float:
    """A call's time at the reference speed (see ``reference.py``)."""
    return elapsed * REFERENCE_MS / (0.5 * (before_ms + after_ms))


def timed_run(client: Client, seconds: float, timings_path: Path) -> dict[str, float]:
    """Closed loop over the inputs for ``seconds``, finishing at least two cycles.

    Every call of one input does identical work (the gate checks that its
    output bytes repeat), so an input's time is the median of its calls'
    scaled times: scaling removes most of the machine's speed changes and
    the median drops calls that straddled a change. The percentiles are
    taken across inputs, that is across data sets. Every call's raw time
    and kernel times are written to ``timings_path``.
    """
    client.send(0)  # warm-up: lazy imports and caches fill before timing
    n = len(client.calls)
    deadline = time.perf_counter() + seconds
    calls = scaled_calls(client, lambda made: made < 2 * n or time.perf_counter() < deadline)
    per_input: list[list[float]] = [[] for _ in range(n)]
    with open(timings_path, "w", encoding="utf-8") as fh:
        fh.write("input\tseconds\tkernel_ms_before\tkernel_ms_after\n")
        for index, elapsed, before, after in calls:
            fh.write(f"{client.calls[index].input.name}\t{elapsed!r}\t{before!r}\t{after!r}\n")
            per_input[index].append(scaled(elapsed, before, after))
    seconds_per_input = [statistics.median(times) for times in per_input]
    per_dataset_ms = [1000.0 * t / call.datasets
                      for t, call in zip(seconds_per_input, client.calls)]
    return {
        "replicates_per_s": sum(call.datasets for call in client.calls) / sum(seconds_per_input),
        "fit_ms_p50": statistics.median(per_dataset_ms),
        "fit_ms_p90": statistics.quantiles(per_dataset_ms, n=10, method="inclusive")[-1],
        "calls": len(calls),
    }


def traced_run(client: Client, spans_path: Path) -> dict[str, float]:
    """One untraced and one traced cycle over the inputs; per-layer metrics."""
    n = len(client.calls)
    client.send(0)
    untraced = scaled_calls(client, lambda made: made < n)
    tracer = Tracer()
    tracer.install()
    try:
        traced = scaled_calls(client, lambda made: made < n)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics(sum(call.datasets for call in client.calls))
    metrics["trace.overhead_share"] = (sum(scaled(*c[1:]) for c in traced)
                                       / sum(scaled(*c[1:]) for c in untraced) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="propfit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    workload = WORKLOADS[args.workload]
    seed = normalize_seed(args.seed)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir, out_dir = work / "inputs", work / "out"
    out_dir.mkdir(parents=True)

    setup_s = measure_setup(workload, seed, inputs_dir)
    import_propfit()
    import propfit.cli

    client = Client(propfit.cli, build_calls(workload, inputs_dir, out_dir))
    if args.trace:
        metrics = traced_run(client, work / "spans.tsv")
        timed_calls = None
    else:
        metrics = timed_run(client, args.seconds, work / "timings.tsv")
        timed_calls = metrics.pop("calls")
    errors, failed_ops, attempted_ops = check_outputs(workload, client)
    failed_share = failed_ops / attempted_ops if attempted_ops else 1.0
    if args.trace:
        metrics.update(failed_share=failed_share, failed_ops=failed_ops,
                       attempted_ops=attempted_ops)
    else:
        metrics.update(setup_s=setup_s, success_share=1.0 - failed_share,
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                           "computed and listed in BENCHMARK.json")
    print(f"workload {workload.name}, seed {seed}, {client.attempted} CLI calls"
          + (f", {timed_calls} timed" if timed_calls else ""))
    print(f"  failed_share = {failed_ops}/{attempted_ops} = {failed_share:.6g} "
          "(failed / attempted fits)")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    result = {"correct": not errors, "attempted": client.attempted, "failed": client.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
