"""privblock benchmark: closed-loop two-party inference with oracle gates.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds T --trace 0|1

Run from anywhere inside a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run sets the session up several times (reporting the
median), then runs inferences back to back for T seconds and reports the
end-to-end metrics named in BENCHMARK.json.  With ``--trace 1`` it runs half
the time untraced, then wraps the program's layers and runs the other half
traced, reporting the per-layer metrics; the spans go to ``perfbench/out/``.
Every inference is checked against its plaintext oracle and analytic byte
formula.  The last stdout line is one JSON object; the exit code is 0 only
when every check passed.  ``--workload all`` runs each workload in its own
process and prints each one's lines.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

RUN_LIMIT_S = 170.0      # a run must end well inside 180 s
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 200
SETUP_BUDGET_S = 1.0     # keep setting up (past the minimum) while under this
MAE_RANGE, MAE_POINTS = (-6.0, 6.0), 10_000


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _emit(values: dict, metric_specs: list, attempted: int, failed: int,
          counts: dict) -> dict:
    """Print every metric by name with its unit; return the result object.
    Values the spec does not name are printed for reading, not returned."""
    metrics = {}
    for spec in metric_specs:
        name, unit = spec["name"], spec["unit"]
        if name not in values:
            raise KeyError(f"metric {name!r} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
        extra = f"  (median of {counts[name]})" if name in counts else ""
        print(f"{name:34s} {values[name]:.6g} {unit}{extra}")
    for name in values.keys() - metrics.keys():
        value, unit = values[name]
        print(f"{name:34s} {value:.6g} {unit}")
    print(f"{'failed_frac':34s} {failed / attempted:.6g} frac  ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's run; prints its metrics and returns the result object.
    The program is imported lazily, so a checkout without it fails cleanly."""
    import harness

    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = wl.make_inputs(seed)
    pair = harness.PartyPair(deadline)
    problems = []
    try:
        measure = _traced if trace else _untraced
        values, samples, counts = measure(pair, wl, seed, seconds, inputs, problems)
    finally:
        pair.stop()
    problems += [f"inference {i}: {s.problem}" for i, s in enumerate(samples) if not s.ok]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    failed = sum(not s.ok for s in samples)
    print(f"workload {wl.name} seed {seed} trace {int(trace)}")
    if values is None:
        return {"correct": False, "attempted": len(samples), "failed": failed,
                "metrics": {}}
    result = _emit(values, _spec()["per_layer" if trace else "end_to_end"],
                   len(samples), failed, counts)
    result["correct"] = result["correct"] and not problems
    return result


def _untraced(pair, wl, seed, seconds, inputs, problems):
    """Set up several times (median), then the closed loop for ``seconds``."""
    import harness
    import workloads

    setups = [harness.set_up(pair, wl, seed)]
    while len(setups) < SETUP_MIN_REPS or (
            len(setups) < SETUP_MAX_REPS
            and sum(s.seconds for s in setups) < SETUP_BUDGET_S):
        setups[-1].close()
        setups.append(harness.set_up(pair, wl, seed))
    setup = setups[-1]
    err = workloads.setup_traffic_error(setup.report)
    if err:
        problems.append(err)
    samples = harness.closed_loop(pair, wl, setup, inputs, seconds)
    setup.close()
    done = [s for s in samples if s.report is not None]
    if not done:
        return None, samples, {}
    first = done[0]
    values = {
        "latency_s": statistics.median(s.latency for s in done),
        "cpu_s": statistics.median(s.cpu for s in done),
        "setup_s": statistics.median(s.seconds for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "comm_bytes": first.report.total_bytes,
        "rounds": first.report.round_count,
        "sim_wan1_s": first.report.simulated_time,
        # the largest error of one output varies 25-35% between seeds on the
        # toy block; its log varies a few percent, inside a useful bound
        "accuracy_bits": -math.log2(first.check.max_abs_err),
        "max_abs_err": (first.check.max_abs_err, "abs"),
    }
    counts = {"latency_s": len(done), "cpu_s": len(done), "setup_s": len(setups)}
    return values, samples, counts


def _traced(pair, wl, seed, seconds, inputs, problems):
    """Half the time untraced, then the same loop with every layer wrapped."""
    import harness
    import tracing
    import workloads
    from privblock import approx

    setup = harness.set_up(pair, wl, seed)
    plain = harness.closed_loop(pair, wl, setup, inputs, seconds / 2)
    setup.close()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        pair.each(lambda role: tracer.bind(role))
        before = tracer.mark()
        setup = harness.set_up(pair, wl, seed)
        setup_range = {p: (before[p], n) for p, n in tracer.mark().items()}
        marks = []
        traced = harness.closed_loop(pair, wl, setup, inputs, seconds / 2,
                                     before=lambda i: marks.append(tracer.mark()))
        marks.append(tracer.mark())
        setup.close()
    finally:
        tracer.uninstall()
    err = workloads.setup_traffic_error(setup.report)
    if err:
        problems.append(err)
    samples = plain + traced
    if not all(s.report is not None for s in samples):
        return None, samples, {}
    windows = {p: [(a[p], b[p]) for a, b in zip(marks, marks[1:])] for p in "AB"}
    values = tracing.summarize(tracer, windows, setup_range,
                               [s.latency for s in traced])
    first = traced[0].report
    values["channel.bytes_ab"] = first.bytes_sent["A"]
    values["channel.bytes_ba"] = first.bytes_sent["B"]
    values["channel.setup_bytes"] = setup.report.total_bytes
    for fn in ("gelu", "sigmoid", "tanh", "mish"):
        values[f"approx.mae.{fn}"] = approx.mae(approx.TABLES[fn], approx.TARGETS[fn],
                                                *MAE_RANGE, MAE_POINTS)
    values["trace.overhead_frac"] = (
        statistics.median(s.latency for s in traced)
        / statistics.median(s.latency for s in plain) - 1.0)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.dump(str(out / f"{wl.name}-seed{seed}.jsonl"))
    return values, samples, {}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in _spec()["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if result is None:
            combined["correct"] = False
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    try:
        import privblock
        import workloads
    except ImportError as e:
        print(f"cannot import the program from {src}: {e}", file=sys.stderr)
        return 2
    if not Path(privblock.__file__).resolve().is_relative_to(src):
        print(f"privblock was imported from {privblock.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in workloads.WORKLOADS:
        result = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    else:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
