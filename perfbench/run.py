"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload a2-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from its `src/`
directory, never from an installed copy.  Workloads are defined in
workloads.py and described in README.md.

Set-up (root systems, density models, cache fill) is done SETUP_REPS times
and timed.  Then passes run back to back, each followed by its untimed
checks, until --seconds have gone by and at least MIN_PASSES passes are
done.  The package import is timed IMPORTS_AT_ONCE times, each in a fresh
interpreter, before each set-up and after each untraced pass, up to
IMPORT_REPS times in all, so the import times are spread over the run.

With --trace 0 the result carries the end-to-end metrics: pass_s and
setup_s, medians in reference seconds (wall time converted at the machine
speed a probe measures while the code runs, see speed.py), and peak_rss_mb.
With --trace 1, passes alternate untraced and traced and the result carries
the per-layer metrics of the median traced pass (see tracing.py), its times
converted to reference seconds at that pass's mean speed; the spans are
written to .perfbench/ under the checkout.

Standard output ends with two JSON lines: a report (environment fingerprint,
raw wall-clock pass and set-up times, probe speeds, failed checks, fail_frac)
and then the result, with exactly the keys correct, attempted, failed and
metrics.  `attempted` and `failed` count checks; fail_frac is
failed / attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

MIN_PASSES = 2
SETUP_REPS = 3
IMPORT_REPS = 12
IMPORTS_AT_ONCE = 2
# no pass starts that would end later than this, so a run exits within 180 s
TIME_LIMIT_S = 150.0

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "rootsys.build_s": "s",
    "rootsys.weyl_order": "count",
    "rootsys.self_s": "s",
    "rootsys.calls": "count",
    "repchar.table_s": "s",
    "repchar.table_weights": "count",
    "repchar.table_bits": "bits",
    "repchar.racah_s": "s",
    "repchar.components": "count",
    "repchar.self_s": "s",
    "repchar.calls": "count",
    "measures.xi_s": "s",
    "measures.moments_s": "s",
    "measures.eta_s": "s",
    "measures.eta_ext_s": "s",
    "measures.eta_ext_atoms": "count",
    "measures.wall_atoms": "count",
    "measures.pushforward_s": "s",
    "measures.self_s": "s",
    "measures.calls": "count",
    "convergence.charfn_s": "s",
    "convergence.tv_s": "s",
    "convergence.report_s": "s",
    "convergence.self_s": "s",
    "convergence.calls": "count",
    "densities.model_s": "s",
    "densities.quadrature_s": "s",
    "densities.quadrature_points": "count",
    "densities.self_s": "s",
    "densities.calls": "count",
    "cli.main_s": "s",
    "cli.cache_write_s": "s",
    "cli.cache_read_s": "s",
    "cli.cache_bytes": "bytes",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "cli.out_bytes": "bytes",
    "cli.self_s": "s",
    "cli.calls": "count",
    "bench.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "setup.rootsys.build_s": "s",
    "setup.repchar.table_s": "s",
    "setup.cli.cache_write_s": "s",
}
# per-layer metrics taken from the median traced set-up rather than a pass
SETUP_LAYER = ("rootsys.build_s", "repchar.table_s", "cli.cache_write_s")

# times the import in a fresh interpreter, then probes that interpreter's speed
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import tensorlimits.cli; wall = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import speed; print(wall, speed.reference_seconds(wall, [speed.probe() for _ in range(20)]))"
)


def load_package() -> None:
    """Put the checkout's src/ first on sys.path and import the package from it.

    Also keeps numpy's BLAS to one thread (before numpy is first imported), so
    the package runs single threaded as the workloads intend.
    """
    init = SRC / "tensorlimits" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no package source at {init}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tensorlimits

    if Path(tensorlimits.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported tensorlimits from {tensorlimits.__file__}, not {init}")


def import_seconds() -> list:
    """Times to import the package, each in a fresh interpreter: (wall, reference) seconds."""
    times = []
    for _ in range(IMPORTS_AT_ONCE):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        wall, ref = (float(x) for x in proc.stdout.split()[-2:])
        times.append((wall, ref))
    return times


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def fingerprint() -> dict:
    import importlib.util

    import numpy

    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)).strip() for f in ("level", "type", "size"))
        if level:
            caches[f"L{level}{kind[:1].lower() if kind != 'Unified' else ''}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "cpu_caches": caches,
        "platform": platform.platform(),
    }


def tail(samples) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return {"percentile": pct, "value": sorted(samples)[rank - 1]}


def _segment(fn, tracer):
    """Run fn(tracer) once under a Speedometer; return (value, seconds, error, meter).

    meter.ref_s is the segment's reference time.  With a tracer, the
    package's functions are swapped for its wrappers and the segment is its
    root span; seconds is then that span's duration.
    """
    gc.collect()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.installed(tracer))
        meter = stack.enter_context(speed.Speedometer())
        if tracer is not None:
            stack.enter_context(tracer.span(tracing.ROOT))
        start = time.perf_counter()
        try:
            value, error = fn(tracer), None
        except Exception as exc:
            value, error = None, exc
        seconds = time.perf_counter() - start
    if tracer is not None:
        root = tracer.spans[0]
        seconds = root["end"] - root["start"]
    return value, seconds, error, meter


def _median_traced(traced):
    """The (seconds, meter, tracer) triple of median reference time."""
    ordered = sorted(traced, key=lambda item: item[1].ref_s)
    return ordered[(len(ordered) - 1) // 2]


def _layer_values(seconds, meter, tracer) -> dict:
    """The tracer's summary, its times scaled to reference seconds at the segment's mean speed."""
    return tracer.summary(scale=meter.ref_s / seconds)


def run_benchmark(workload, seconds: float, trace: bool, reference, work_root: Path):
    """Set up, loop passes for `seconds`, verify each; return (report, result)."""
    from workloads import Checks

    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        imports = []  # (wall, reference) seconds
        setups = []
        for rep in range(SETUP_REPS):
            imports += import_seconds()
            rep_dir = work / f"setup{rep}"
            rep_dir.mkdir()
            tracer = tracing.Tracer(f"setup{rep}") if trace else None
            state = None  # the previous set-up's state is not kept alive during this one
            state, dt, error, meter = _segment(lambda tr, d=rep_dir: workload.setup(d, tr), tracer)
            if error is not None:
                raise error
            setups.append((dt, meter, tracer))

        checks = Checks()
        times, traced = [], []  # (seconds, meter) untraced; (seconds, meter, tracer) traced
        start = time.perf_counter()
        while True:
            tracer = tracing.Tracer(f"pass{len(times) + len(traced)}") if trace and len(times) > len(traced) else None
            outputs, dt, error, meter = _segment(lambda tr: workload.run_pass(state, tr), tracer)
            if error is None:
                workload.verify(state, outputs, checks, reference)
            else:
                traceback.print_exception(error, file=sys.stderr)
                checks.check("pass completes", False, f"{type(error).__name__}: {error}")
            outputs = None  # this pass's results are not kept alive during the next pass
            if tracer is None:
                times.append((dt, meter))
                if len(imports) < IMPORT_REPS:
                    imports += import_seconds()
            else:
                traced.append((dt, meter, tracer))
            elapsed = time.perf_counter() - start
            if len(times) + len(traced) >= MIN_PASSES and elapsed >= seconds and (traced or not trace):
                break
            if elapsed + dt > TIME_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [dt for dt, _ in times]
    refs = [meter.ref_s for _, meter in times]
    wall_s = statistics.median(walls)
    probes = [p for _, meter in times for p in meter.probes]
    setup_walls = [dt for dt, _, _ in setups]
    import_wall_s = statistics.median(wall for wall, _ in imports)
    import_ref_s = statistics.median(ref for _, ref in imports)
    report = {
        "workload": workload.name,
        "orientation": workload.orientation,
        "t": [str(x) for x in workload.t],
        "samples": len(times),
        "wall_s": {"median": wall_s, "tail": tail(walls), "passes": walls},
        "pass_s": {"median": statistics.median(refs), "tail": tail(refs), "passes": refs},
        "probe_s": {"median": statistics.median(probes), "min": min(probes), "max": max(probes), "count": len(probes)},
        "raw_setup_s": {"median": import_wall_s + statistics.median(setup_walls), "import_s": import_wall_s,
                        "import_reps": len(imports), "reps": setup_walls},
        "fail_frac": checks.failed / checks.attempted if checks.attempted else 1.0,
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures},
        "env": fingerprint(),
    }
    if trace:
        values = _layer_values(*_median_traced(traced))
        values["trace.overhead_s"] = values["trace.pass_s"] - report["pass_s"]["median"]
        values["rootsys.weyl_order"] = len(state.rs.weyl)
        setup_values = _layer_values(*_median_traced(setups))
        for name in SETUP_LAYER:
            values[f"setup.{name}"] = setup_values[name]
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
        report["traced_passes"] = {"wall_s": [dt for dt, _, _ in traced], "ref_s": [m.ref_s for _, m, _ in traced]}
        report["spans"] = [{"segment": tr.segment, "spans": tr.spans}
                           for tr in [tr for _, _, tr in setups] + [tr for _, _, tr in traced]]
    else:
        setup_s = import_ref_s + statistics.median(meter.ref_s for _, meter, _ in setups)
        report["setup_s"] = setup_s
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"pass_s": report["pass_s"]["median"], "setup_s": setup_s, "peak_rss_mb": rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    workload = WORKLOADS[args.workload](random.Random(args.seed))
    report, result = run_benchmark(workload, args.seconds, bool(args.trace), reference, WORK)
    spans = report.pop("spans", None)
    if spans is not None:
        path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans))
        report["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
