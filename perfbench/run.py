"""Repo benchmark: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the repository root.

One process runs one workload (``frame``, ``quality`` or ``sweep``; see
``bench_workloads.py`` and ``NOTES.md``) for about ``--seconds`` seconds
of repeated iterations, checks every operation's output, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
metrics of ``BENCHMARK.json``, measured untraced; times are reported at
a reference host speed measured by a calibration loop around every
timed region (``_seconds``).  With ``--trace 1``
they are its per-layer metrics: iterations alternate untraced and
traced, and the traced ones wrap the layers' public functions
(``bench_trace.py``); the spans are written to
``.perfbench-work/trace-<workload>-seed<n>.json`` when the run ends.
The lines above the JSON give every metric, workload-specific outputs
and check failures in readable form.

The simulator is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 2 and prints no result.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
"""Fresh processes timed from start through imports and input generation;
``setup_s`` is their median.  Import time is most of set-up, and a
process imports only once, so each repeat is a process of its own."""
SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import bench_trace, bench_workloads
bench_workloads.WORKLOADS[{workload!r}]({seed}, None, None).generate()
"""
CALIBRATION_LOOPS = 300_000
CALIBRATION_REFERENCE_S = 0.025
"""Seconds the calibration loop (:func:`_calibration_s`) takes at the
reference host speed: its lower quartile on the 2-vCPU VM where the
first baseline was measured (NOTES.md).  Timed regions are reported at
that speed."""
MIN_ITERATIONS = 3
"""Fewest iterations per run, whatever ``--seconds`` says: enough for a
median, and for a traced run both an untraced and a traced iteration."""
TRACED_PATTERN = (False, True)
"""Iteration i of a traced run is traced when ``TRACED_PATTERN[i % 2]``."""

PAPER_MEANS = {
    "atfim_texture_speedup": 3.97,
    "atfim_render_speedup": 1.43,
    "stfim_traffic_ratio": 2.79,
    "atfim_energy_ratio": 0.78,
}
"""EXPERIMENTS.md's paper figures: means over ten apps, shown for context
beside the doom3-640x480 values and never compared against them."""

CLEARED_ENV = ("REPRO_CACHE_DIR", "REPRO_TRACE", "REPRO_CHECK_INVARIANTS")
"""Simulator switches that would change what is timed; unset for the run."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("frame", "quality", "sweep"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the registry inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time (at least 3 iterations run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _lower_quartile(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _seconds(records, prefix, key="durations"):
    """Seconds per iteration in the regions labelled ``prefix[.part]``.

    ``key="durations"`` gives region times at the reference host speed:
    each region's wall time scaled by ``CALIBRATION_REFERENCE_S`` over
    the calibration loop's mean time just before and just after it.
    ``"raw_durations"`` gives wall times.  Each region's lower quartile
    across iterations is taken, and the regions summed.

    Why: the host is a VM shared with other tenants, whose speed drops
    by up to half for bursts of seconds and for phases of minutes.  Such
    noise only ever adds time, so the faster iterations measure the
    program best, and a burst moves only the region it lands in; scaling
    by the calibration loop removes the slower phases, which no choice
    of iterations can.  NOTES.md gives the measured effect of each.
    """
    labels = {
        label for r in records for label in r[key]
        if label == prefix or label.startswith(prefix + ".")
    }
    return sum(
        (_lower_quartile([r[key][label] for r in records])
         for label in labels),
        0.0,
    )


def _calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    began = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - began


def _setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import and generate inputs."""
    code = SETUP_PROBE.format(
        src=str(ROOT / "src"), here=str(HERE), workload=workload, seed=seed
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - began)
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped worker, in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _measure(workload, tracer, seconds):
    """Run iterations for about ``seconds``; returns one record each."""
    from bench_trace import layer_metrics

    records = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and TRACED_PATTERN[len(records) % 2]
        durations = {}
        raw_durations = {}
        first_span = len(tracer.spans) if tracer is not None else 0

        @contextlib.contextmanager
        def timer(label):
            before = _calibration_s()
            if traced:
                tracer.install()
            began = time.perf_counter()
            try:
                yield
            finally:
                raw = time.perf_counter() - began
                if traced:
                    tracer.uninstall()
                speed = CALIBRATION_REFERENCE_S / ((before + _calibration_s()) / 2)
                raw_durations[label] = raw_durations.get(label, 0.0) + raw
                durations[label] = durations.get(label, 0.0) + raw * speed

        began = time.perf_counter()
        try:
            iteration = workload.iterate(timer)
        except Exception:  # an operation raised: the iteration's ops fail
            iteration = None
            error = traceback.format_exc(limit=4)
        record = {
            "traced": traced,
            "durations": durations,
            "raw_durations": raw_durations,
            "iteration": iteration,
            "elapsed": time.perf_counter() - began,
            "error": None if iteration is not None else error,
        }
        if traced and iteration is not None:
            record["spans"] = layer_metrics(
                tracer.spans, first_span, sum(raw_durations.values())
            )
        records.append(record)
        gc.collect()  # each iteration starts from the same heap
        elapsed = time.perf_counter() - start
        typical = _median([r["elapsed"] for r in records])
        if len(records) >= MIN_ITERATIONS and elapsed + typical / 2 >= seconds:
            return records


def _collect(records, setup_s, tracer, ops_per_iteration):
    """Every metric this run can report, plus attempted/failed/problems."""
    from bench_trace import SPAN_METRICS

    ok = [r for r in records if r["iteration"] is not None]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    attempted = sum(
        r["iteration"].attempted if r["iteration"] else ops_per_iteration
        for r in records
    )
    failed = sum(
        r["iteration"].failed if r["iteration"] else ops_per_iteration
        for r in records
    )
    problems = [p for r in ok for p in r["iteration"].problems]
    problems += [r["error"] for r in records if r["error"]]
    run_s = _seconds(untraced, "run")
    requests = _median([r["iteration"].requests for r in untraced])
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "sim_requests_per_s": requests / run_s if run_s else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
        "warm_s": _seconds(untraced, "warm"),
    }
    for name in ok[0]["iteration"].outputs if ok else ():
        metrics[name] = _median([r["iteration"].outputs[name] for r in ok])
    for name in ok[0]["iteration"].layers if ok else ():
        metrics[name] = _median([r["iteration"].layers[name] for r in ok])
    if tracer is not None:
        for name in traced[0]["spans"] if traced else ():
            metrics[name] = _median([r["spans"][name] for r in traced])
        # The first iteration pays the process's one-time costs; leave it
        # out of the untraced side when another untraced one exists.
        steady = [r for r in untraced if r is not records[0]] or untraced
        traced_run_s = _seconds(traced, "run")
        steady_run_s = _seconds(steady, "run")
        metrics["bench.trace_overhead"] = (
            traced_run_s / steady_run_s - 1.0 if steady_run_s and traced else 0.0
        )
        metrics["bench.unmeasured_layers"] = len(tracer.unmeasured)
        for name in SPAN_METRICS:  # no traced iteration completed
            metrics.setdefault(name, 0.0)
    return attempted, failed, problems, metrics, bool(untraced)


def _report(workload_name, seed, metrics, units, problems, tracer, records):
    """The readable lines above the JSON result."""
    print(f"perfbench {workload_name} seed={seed}: {len(records)} iterations")
    for prefix in ("run", "warm"):
        if not any(_seconds([r], prefix) for r in records):
            continue
        for key, kind in (("raw_durations", "wall"), ("durations", "reference-speed")):
            samples = [
                f"{_seconds([r], prefix, key):.3f}{'*' if r['traced'] else ''}"
                for r in records
            ]
            print(f"  {prefix}: {kind} seconds per iteration (* traced): "
                  + " ".join(samples))
    for name, value in metrics.items():
        unit = units.get(name, "")
        note = ""
        if name in PAPER_MEANS and value:
            note = f"   (paper mean over ten apps: {PAPER_MEANS[name]})"
        print(f"  {name:40s} {value:>16.6g} {unit}{note}")
    if tracer is not None and tracer.unmeasured:
        print("  unmeasured layers (hook target missing): "
              + ", ".join(tracer.unmeasured))
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more failures")


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no simulator source at {source / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    try:
        import bench_trace
        import bench_workloads
    except ImportError as error:
        print(f"perfbench: cannot import the simulator from {source}: "
              f"{error}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reference = None
    if args.seed == 0:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = bench_workloads.WORKLOADS[args.workload](args.seed, reference, run_dir)
    tracer = bench_trace.Tracer() if args.trace else None
    try:
        setup_s = _setup_seconds(args.workload, args.seed)
        workload.generate()
        records = _measure(workload, tracer, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, problems, metrics, measured = _collect(
        records, setup_s, tracer, workload.ops_per_iteration
    )
    _report(args.workload, args.seed, metrics, units, problems, tracer, records)
    if tracer is not None:
        out = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"spans": tracer.spans}))
        print(f"  spans written to {out.relative_to(ROOT)}")
    if not measured:
        print("perfbench: no iteration completed untraced", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec[section]
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
