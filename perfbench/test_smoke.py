"""Smoke test of the benchmark itself, on tiny inputs (A1 and A2, N <= 16).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import random
import time

import pytest

import run
import speed

run.load_package()

from workloads import A2Cold, A3Weyl, B2Warm, Checks  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed=7):
    rng = random.Random(seed)
    if name == "a2-cold":
        return A2Cold(rng, cartan="A1", choices=((1,),), n_values=(4, 8, 16))
    if name == "b2-warm":
        return B2Warm(rng, cartan="A2", factors=(((1, 0), "1"), ((0, 1), "1/2")), converge_n=(2, 4, 8),
                      measure_n=8, ext_n=4)
    return A3Weyl(rng, cartan="A2", choices=((1, 0), (0, 1)), n_values=(4, 16))


def bench(workload, tmp_path, trace=False, reference=None):
    return run.run_benchmark(workload, 0, trace, reference, tmp_path)


def test_benchmark_file_lists_the_metrics_run_emits():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == ["a2-cold", "b2-warm", "a3-weyl"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["a2-cold", "b2-warm", "a3-weyl"])
def test_every_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    report, result = bench(tiny(name), tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, report["checks"]
    assert report["fail_frac"] == 0
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        self_sum = sum(values[f"{layer}.self_s"] for layer in ("rootsys", "repchar", "measures", "convergence",
                                                               "densities", "cli", "bench"))
        assert self_sum == pytest.approx(values["trace.pass_s"], rel=1e-9)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def corrupt_decompose(outputs):
    """Raise the last component's multiplicity by one."""
    call = outputs["decompose"]
    lines = call.out.strip().split("\n")
    cells = lines[-1].split(",")
    cells[-1] = str(int(cells[-1]) + 1)
    call.out = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


def corrupt_eta_extended(outputs):
    """Move an atom's mass onto a point of the shifted wall."""
    n = min(outputs["ext"])
    measure = outputs["ext"][n]
    k = next(i for i, (_, p) in enumerate(measure.atoms) if p)
    (w, p), rest = measure.atoms[k], measure.atoms[:k] + measure.atoms[k + 1:]
    wall = (-1,) + tuple(w[1:])
    outputs["ext"][n] = type(measure)(rest + ((wall, p),), measure.sigma_sq, measure.N)


@pytest.mark.parametrize("name, corrupt", [("b2-warm", corrupt_decompose), ("a3-weyl", corrupt_eta_extended)])
def test_corrupted_result_raises_fail_frac(tmp_path, name, corrupt):
    workload = tiny(name)
    run_pass = workload.run_pass

    def corrupted_pass(state, tracer=None):
        outputs = run_pass(state, tracer)
        corrupt(outputs)
        return outputs

    workload.run_pass = corrupted_pass
    report, result = bench(workload, tmp_path)
    assert report["fail_frac"] > 0
    assert result["failed"] > 0 and not result["correct"]


def test_reference_floats_compare_at_ulp_scale(tmp_path):
    workload = tiny("a3-weyl")
    state = workload.setup(tmp_path)
    floats, digests = workload.observe(state, workload.run_pass(state), Checks())
    reference = {workload.name: {workload.orientation: {"floats": floats, "digests": digests}}}
    assert bench(workload, tmp_path, reference=reference)[1]["correct"]

    run_pass = workload.run_pass
    for shift, ok in ((1e-14, True), (1e-9, False)):
        workload.run_pass = lambda state, tracer=None, s=shift: {
            **run_pass(state, tracer), "quadrature": floats["quadrature_mass"] * (1 + s)}
        assert bench(workload, tmp_path, reference=reference)[1]["correct"] is ok


def test_speedometer_converts_wall_time_at_the_probed_speed():
    with speed.Speedometer() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            speed.probe()
        wall = time.perf_counter() - start
    assert len(meter.probes) >= 3
    # the probes' own time is excluded from the converted stretches
    stretches = wall - sum(meter.probes)
    assert stretches * speed.PROBE_REF_S / max(meter.probes) <= meter.ref_s <= wall * speed.PROBE_REF_S / min(meter.probes)
