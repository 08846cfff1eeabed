#!/usr/bin/env python3
"""dorsalhash benchmark.

    python3 perfbench/run.py --workload desk_train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Runs one workload (see workloads.py) in this process: set up several times,
then repeat the workload's fixed unit, a sequence of short timed steps,
until --seconds have passed.  With --trace 0 the last line of stdout is a
JSON object holding the end-to-end metrics; with --trace 1 it holds the per-layer metrics from span shims
(tracer.py), measured over one traced unit and compared with one untraced
unit to give the tracing overhead.  ``--workload all`` runs every workload,
each in its own process, and prints every metric by name.

A full record of each run (environment, report, golden digests, checks) is
written to .perfbench_out/ at the root of the checkout.
"""

import os

# Pin BLAS threads before numpy is imported anywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("desk_train", "protocol_scale", "vault_cli")
# setup_s is the median of at least SETUP_REPEATS set-ups lasting at least
# SETUP_MIN_S in total, so a set-up of a few milliseconds still reads steady.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
# Set-ups build arrays, so their host slowdown is read from the memory
# kernel (reference.py).
SETUP_REFERENCE = ("stream",)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def golden_status(workload: str, seed: int, digests: dict) -> dict:
    pinned = json.loads((HERE / "golden.json").read_text())
    if seed != pinned["seed"]:
        return {name: "unpinned" for name in digests}
    want = pinned["digests"].get(workload, {})
    return {name: ("match" if want.get(name) == value else "mismatch") for name, value in digests.items()}


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Runner:
    """Times one workload: setup repeats, then units until the deadline."""

    def __init__(self, workload, seconds: float, trace: bool):
        import reference
        import workloads

        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.checks = workloads.Checks()
        self.units: list[dict] = []
        self.unit_digests: list[dict] = []
        self.reference = reference.Reference()

    def _unit(self) -> dict | None:
        """One unit; an exception counts as a failed operation."""
        try:
            result = self.w.unit()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.checks.record(False, f"unit raised: {traceback.format_exc(limit=1).splitlines()[-1]}")
            return None
        return result

    def _keep(self, result: dict, measured: bool = True) -> None:
        digests = self.w.finish(result, self.checks)
        if self.unit_digests:
            self.checks.record(digests == self.unit_digests[0], "unit outputs differ from the first unit's")
        self.unit_digests.append(digests)
        if measured:
            self.units.append(result)

    def run(self) -> dict:
        return self._traced() if self.trace else self._timed()

    def _timed(self) -> dict:
        import workloads

        self.reference.start("setup")
        setup = []
        while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_S:
            t0 = perf_counter()
            self.w.setup()
            setup.append(perf_counter() - t0)
            self.reference.maybe_sample()
        for _ in range(self.w.warmup_units):
            result = self._unit()
            if result is not None:
                self._keep(result, measured=False)
        self.reference.start("units")
        workloads.after_step = self.reference.maybe_sample
        # Start another unit while it is expected to end before the deadline,
        # and always run at least min_units.
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            typical = statistics.median(u["unit_s"] for u in self.units) if self.units else 0.0
            if len(self.units) >= self.w.min_units and elapsed + typical > self.seconds:
                break
            result = self._unit()
            if result is not None:
                self._keep(result)
            elif perf_counter() - start > self.seconds:
                break  # a unit that fails after the deadline ends the run
        workloads.after_step = None
        self.reference.sample()
        return {"setup": setup}

    def _traced(self) -> dict:
        import tracer

        spans = tracer.Tracer()
        spans.install()
        try:
            t0 = perf_counter()
            self.w.setup()
            setup = [perf_counter() - t0]
            setup_slice = (0, len(spans))
            spans.uninstall()
            warmup = self._unit()
            untraced = self._unit()
            spans.install()
            lo = len(spans)
            traced = self._unit()
            hi = len(spans)
        finally:
            spans.uninstall()
        for result in (warmup, untraced, traced):
            if result is not None:
                self._keep(result)
        layer = spans.layer_metrics(*setup_slice)
        unit_layer = spans.layer_metrics(lo, hi)
        for name, value in unit_layer.items():
            layer[name] += value
        if untraced is not None and traced is not None:
            layer["trace.unit_s"] = untraced["unit_s"]
            layer["trace.traced_unit_s"] = traced["unit_s"]
            layer["trace.overhead_s"] = traced["unit_s"] - untraced["unit_s"]
        return {"setup": setup, "layer": layer, "spans": spans}


def run_one(args) -> int:
    import workloads

    e2e_units, layer_units = declared_metrics()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload, args.seconds, bool(args.trace))
        outcome = runner.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = runner.checks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "units": len(runner.units),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_frac": checks.failed / max(1, checks.attempted),
        "problems": checks.problems,
        "golden": golden_status(args.workload, args.seed, runner.unit_digests[0]) if runner.unit_digests else {},
        "digests": runner.unit_digests[0] if runner.unit_digests else {},
        "unit_values": [{k: v for k, v in u.items() if isinstance(v, float)} for u in runner.units],
    }
    if not runner.units:
        metrics = {}
    elif args.trace:
        layer = outcome["layer"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in layer_units.items()
                   if name in layer}
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        outcome["spans"].save(spans_file)
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        unit_fast_s = workloads.unit_fast_s(runner.units)
        setup_median_s = statistics.median(outcome["setup"])
        slowdown = {"setup": runner.reference.slowdown("setup", SETUP_REFERENCE),
                    "units": runner.reference.slowdown("units", workload.unit_reference)}
        values = {
            "setup_s": setup_median_s / slowdown["setup"],
            "peak_rss_mb": peak_rss_mb,
            "unit_adj_s": unit_fast_s / slowdown["units"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in e2e_units.items()}
        report = {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in workload.summary(runner.units).items()}
        n_units = len(runner.units)
        report["unit_adj_s"] = {"value": values["unit_adj_s"], "unit": "s", "n": n_units}
        report[f"unit_p{workloads.STEP_PERCENTILE}_s"] = {"value": unit_fast_s, "unit": "s", "n": n_units}
        report["unit_s"] = {"value": statistics.median(u["unit_s"] for u in runner.units), "unit": "s", "n": n_units}
        report["setup_median_s"] = {"value": setup_median_s, "unit": "s", "n": len(outcome["setup"])}
        for phase, kernels in runner.reference.samples.items():
            for kernel, times in kernels.items():
                report[f"reference_{phase}_{kernel}_p10_s"] = {"value": runner.reference.p10_s(phase, kernel),
                                                               "unit": "s", "n": len(times)}
            report[f"host_slowdown_{phase}"] = {"value": slowdown[phase], "unit": "1", "n": 1}
        report["setup_s"] = {"value": values["setup_s"], "unit": "s", "n": len(outcome["setup"])}
        report["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "n": 1}
        record["step_fast_s"] = {kind: workloads.percentile(workloads.step_times(runner.units, kind),
                                                            workloads.STEP_PERCENTILE)
                                 for kind in runner.units[0]["steps"]}
        report["failed_frac"] = {"value": record["failed_frac"], "unit": "1", "n": checks.attempted}
        record["report"] = report
        for name, m in report.items():
            print(f"{args.workload:15s} {name:24s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")

    correct = checks.failed == 0 and bool(runner.units) and set(metrics) == set(
        layer_units if args.trace else e2e_units)
    record["correct"] = correct
    print(f"golden digests at seed {args.seed}: {record['golden']}")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("REPORT " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    ok = True
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        reports = [json.loads(line[7:]) for line in lines if line.startswith("REPORT ")]
        if proc.returncode != 0 or not reports:
            print(f"{name}: exited {proc.returncode} without a result")
            ok = False
            continue
        record, result = reports[-1], json.loads(lines[-1])
        ok = ok and result["correct"]
        metrics = record.get("report") or {k: dict(v, n=1) for k, v in result["metrics"].items()}
        for metric, m in metrics.items():
            rows.append(f"{name:15s} {metric:40s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")
        rows.append(f"{name:15s} {'correct':40s} {str(result['correct']):>14s}        "
                    f"attempted={result['attempted']} failed={result['failed']} golden={record['golden']}")
        rows.append(f"{name:15s} {'env':40s} {json.dumps(record['env'], sort_keys=True)}")
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dorsalhash" / "__init__.py").is_file():
        return fail(f"no dorsalhash sources under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json at {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
