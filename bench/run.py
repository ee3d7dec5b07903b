"""Pipeline benchmark for tgl; prints one JSON result as the last line of stdout.

    python3 bench/run.py --workload train-384 --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with no wrapper installed.
--trace 1 runs the same pass untraced, then traced, and prints the per-layer
metrics and the tracing overhead.  --smoke shrinks every stage so the harness
test runs in seconds.  Metric names and units come from BENCHMARK.json; see
bench/README.md for what each one measures.
"""
import os
import sys

# One BLAS thread, set before numpy loads: on a small shared machine a
# multi-threaded BLAS turns other tenants' load into our timing noise.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
INHERITED_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import tgl  # noqa: E402

if Path(tgl.__file__).resolve().parent != ROOT / "src" / "tgl":
    raise SystemExit(f"tgl was imported from {tgl.__file__}, not from {ROOT / 'src'}")

import pipeline  # noqa: E402
import spans  # noqa: E402


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpus = os.cpu_count() or 1
    load = os.getloadavg()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads_pinned": BLAS_THREADS,
            "thread_env": {k: os.environ.get(k) for k in INHERITED_THREAD_ENV},
            "thread_env_inherited": INHERITED_THREAD_ENV,
            "cpu_count": cpus, "loadavg_start": load,
            # one core stays busy between back-to-back runs; flag load beyond that
            "load_flagged": load[0] > cpus - 0.5}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_pct(spec: dict, plain: dict, traced: dict) -> dict:
    """How much worse each timed end-to-end metric read with the wrappers installed."""
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in traced:
            continue
        ratio = plain[name] / traced[name] if m["better"] == "higher" else traced[name] / plain[name]
        out[f"trace.overhead.{name}_pct"] = (ratio - 1.0) * 100.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = pipeline.WORKLOADS[args.workload]
    if args.smoke:
        plan = pipeline.smoke_plan(plan)
    env = environment()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "plan": asdict(plan)}
    layer_checks = []
    try:
        plain = pipeline.Pipeline(plan, args.seed, args.seconds, workdir)
        plain.run()
        end_to_end = dict(plain.metrics, peak_rss_mib=peak_rss_mib())
        passes = [plain]
        report["end_to_end"] = end_to_end
        report["samples"] = plain.samples
        if args.trace:
            tracer = spans.Tracer()
            # the traced pass only has to fire every span: sample counts, no time floors
            traced = pipeline.Pipeline(plan, args.seed, 0.0, workdir, tracer,
                                       min_samples=pipeline.TRACE_SAMPLES)
            with spans.installed(tracer):
                traced.run()
            passes.append(traced)
            layers, samples = spans.layer_metrics(tracer)
            # a layer whose spans never fired fails the run rather than reading as a gain
            layer_checks = [(f"{name} has samples", math.isfinite(value))
                            for name, value in layers.items()]
            layers = {name: value if math.isfinite(value) else 0.0 for name, value in layers.items()}
            layers.update(overhead_pct(spec, plain.metrics, traced.metrics))
            spans_path = work_root / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(str(spans_path))
            report.update(traced_end_to_end=traced.metrics, layer_samples=samples,
                          spans_file=str(spans_path.relative_to(ROOT)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [c for p in passes for c in p.checks] + layer_checks
    failed = sum(not ok for _, ok in checks)
    tally: dict[str, list[int]] = {}
    for name, ok in checks:
        t = tally.setdefault(name, [0, 0])
        t[0] += ok
        t[1] += 1
    env["loadavg_end"] = os.getloadavg()
    report.update(env=env, checks={k: {"passed": p, "attempted": a} for k, (p, a) in tally.items()},
                  ops_failed_ratio={"value": failed / len(checks), "failed": failed,
                                    "attempted": len(checks)})
    values = layers if args.trace else end_to_end
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
