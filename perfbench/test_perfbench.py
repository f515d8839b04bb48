"""Self-tests of the benchmark: tracing safety, exact counts, failure accounting.

Run from the repository root with: python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.cap_threads()
run.use_source_tree()

import aliasfree.rotation  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_run(name, tmp_path, cycles=4):
    workload = workloads.make(name, 0, str(tmp_path / name))
    tracer = tracing.Tracer()
    result = run.run_loop(workload, 0, tracer=tracer, min_cycles=cycles, max_cycles=cycles)
    return result, tracer


# Layer self times and the benchmark's own time, each timed on its own, must
# cover the traced wall time to within this share. Full runs compare the
# remainder with the measured tracing overhead, which was at least 2 % of
# wall time on every workload; two traced cycles are too few to measure it.
UNACCOUNTED_MAX = 0.01


def assert_accounted(accounting):
    assert accounting["layers_self_s"] > 0 and accounting["bench_s"] > 0
    assert -1e-6 <= accounting["unaccounted_s"] <= UNACCOUNTED_MAX * accounting["wall_s"], \
        accounting


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tracing_keeps_outputs_and_counts_repeat(name, tmp_path):
    first, tracer = traced_run(name, tmp_path / "a")
    assert first.failures == []
    assert first.pins is not None
    # every input ran untraced and traced; run_op failed any byte difference
    modes = {}
    for r in first.records:
        modes.setdefault(r["key"], set()).add(r["traced"])
    assert all(m == {False, True} for m in modes.values())
    rows, accounting, exact = run.per_layer(first, tracer)
    assert all(exact.values()), [k for k, v in exact.items() if not v]
    assert_accounted(accounting)

    second, tracer2 = traced_run(name, tmp_path / "b")
    rows2, _, _ = run.per_layer(second, tracer2)
    counts = {r[0]: r[1] for r in rows if r[2] == "count"}
    counts2 = {r[0]: r[1] for r in rows2 if r[2] == "count"}
    assert counts == counts2
    assert any(counts.values())


def test_warmup_checks_pinned_inputs_at_any_seed(tmp_path):
    workload = workloads.make("ddpm_8", 5, str(tmp_path / "w"))
    result = run.Run(workload)
    sample_key = next(k for k in result.pins if ":sample:" in k)
    result.pins[sample_key] = "0" * 64
    result.loop(0, min_cycles=0, max_cycles=0)
    assert {r["key"] for r in result.records} == set(result.pins)
    assert [r["key"] for r in result.records if not r["ok"]] == [sample_key]
    assert "digest differs from the pinned one" in result.failures[0]


def test_accounting_shows_time_outside_the_spans(tmp_path):
    # without the cli.main span, its self time is in no layer and not the benchmark's
    workload = workloads.make("raster_cli", 0, str(tmp_path / "w"))
    tracer = tracing.Tracer()
    tracer.families = {k: v for k, v in tracing.FAMILIES.items() if k != "cli.main"}
    result = run.run_loop(workload, 0, tracer=tracer, min_cycles=2, max_cycles=2)
    accounting = run.per_layer(result, tracer)[1]
    assert accounting["unaccounted_s"] > UNACCOUNTED_MAX * accounting["wall_s"], accounting


def test_missing_name_is_reported_absent(tmp_path, monkeypatch):
    # a later change may move rotate; other modules keep their own bindings
    monkeypatch.delattr(aliasfree.rotation, "rotate")
    result, tracer = traced_run("rotsample_32", tmp_path, cycles=2)
    assert result.failures == []
    assert "aliasfree.rotation:rotate" in tracer.missing
    values = {r[0]: r[1] for r in run.per_layer(result, tracer)[0]}
    assert values["rotation.rotate.calls"] is None
    assert values["rotation.rotate.busy_s"] is None
    assert values["rng.normal.calls"] > 0


def test_bad_inputs_count_as_failed_and_the_loop_continues(tmp_path):
    workload = workloads.make("raster_cli", 0, str(tmp_path / "w"))
    gimp = workload.path("gimp.pgm")
    with open(gimp, "wb") as handle:
        handle.write(b"P5\n# CREATOR: GIMP PNM Filter Version 1.1\n2 2\n255\n" + bytes(4))
    good = workload.cycle_ops(0)
    bad = [
        workloads.cli_op("resample", "bad:gimp-comment",
                         ["resample", "--in", gimp, "--mode", "naive", "--dir", "down",
                          "--out", workload.path("gimp-out.pgm")],
                         [workload.path("gimp-out.pgm")],
                         check=workloads.raster_check(b"P5", 1, 1)),
        workloads.cli_op("sample", "bad:T0",
                         ["sample", "--config", "classical", "--T", "0", "--shape", "1x8x8",
                          "--out", workload.path("t0")], [workload.path("t0-000.pgm")]),
    ]
    workload.cycle_ops = lambda cycle: bad[:1] + good[:8] + bad[1:] + good[8:]
    result = run.run_loop(workload, 0, min_cycles=1, max_cycles=1, warmup=False)
    assert result.attempted == len(good) + 2
    assert result.failed == 2
    assert {r["key"] for r in result.records if not r["ok"]} == {"bad:gimp-comment", "bad:T0"}
    assert all(r["ok"] for r in result.records if not r["key"].startswith("bad:"))


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in tracing.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ddpm_8",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
