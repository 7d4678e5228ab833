"""Tests of the benchmark itself, on tiny instances (--smoke).

    PYTHONPATH=src python3 -m pytest bench/test_smoke.py

They are not part of the library's test suite: they run the gridforge CLI
in child processes and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from seed_input import moved

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def cli(*args):
    return run.run_child(run.gridforge(list(args)))


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m.get("unit") for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert metrics["surface.square_cycles.calls.classify"] == 4
        products = [metrics[f"coxeter._mat_mul.calls.{c}"]
                    for c in run.COMMANDS]
        assert sum(products) == metrics["coxeter._mat_mul.calls"]
        if workload == "lattice-tree":
            assert products[:4] == [0, 0, 0, 0]
        else:
            assert min(products) > 0
    else:
        assert all(v > 0 for v in metrics.values())
        assert "error_rate" in done.stdout


def test_end_to_end_names_match_the_declaration():
    assert dict(run.END_TO_END) == declared("end_to_end")
    assert dict(run.per_layer_metrics()) == declared("per_layer")
    assert set(declared("workloads")) <= set(run.WORKLOADS)


def test_times_are_scaled_by_the_reference_timings_near_them():
    r = run.Run(run.workload("hyp-tree", smoke=True), 1, "unused")
    r.references = [(10.0, run.REFERENCE_S), (100.0, 2 * run.REFERENCE_S)]
    assert r.scaled(12.0, 3.0) == pytest.approx(3.0)
    assert r.scaled(98.0, 3.0) == pytest.approx(1.5)


def _built(tmp_path, name):
    wl = run.workload(name, smoke=True)
    path = str(tmp_path / f"{name}.json")
    child = cli("build", *wl.build, "-o", path)
    assert run.check_command(wl, "build", child, path) is None
    return wl, path


@pytest.mark.parametrize("name", ("hyp-tree", "lattice-tree"))
def test_seeded_input_depends_only_on_the_seed(tmp_path, name):
    _, path = _built(tmp_path, name)
    outs = []
    for i, seed in enumerate((5, 5, 6)):
        out = str(tmp_path / f"in{i}.json")
        child = run.run_child([sys.executable,
                               os.path.join(BENCH, "seed_input.py"), path,
                               out, "--seed", str(seed)])
        assert child.code == 0, child.err
        with open(out, "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1] != outs[2]


def test_lattice_move_keeps_squares_and_topology(tmp_path):
    from gridforge.constructors import tree_of_life
    from gridforge.surface import classify

    base = tree_of_life(1)
    out = moved(base, 11)
    assert len(out.squares) == len(base.squares)
    assert out.squares != base.squares
    assert classify(out).class_name == "orientable genus 0"


def test_checks_reject_wrong_output(tmp_path):
    wl, path = _built(tmp_path, "hyp-tree")
    mesh = str(tmp_path / "mesh.off")
    child = cli("export", path, "--format", "off", "-o", mesh)
    assert run.check_command(wl, "export", child, mesh) is None
    with open(mesh, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    v, f, e = (int(t) for t in lines[1].split())
    lines[1] = f"{v} {f - 1} {e}"
    with open(mesh, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert run.check_command(wl, "export", child, mesh) is not None

    child = cli("classify", path)
    assert run.check_command(wl, "classify", child) is None
    wrong = child._replace(out=child.out.replace("genus 0", "genus 1"))
    assert run.check_command(wl, "classify", wrong) is not None
    assert run.check_command(wl, "classify", child._replace(code=1))
    stats = cli("stats", wl.stats)
    assert run.check_command(wl, "stats", stats) is None
    assert run.check_command(run.workload("h4-surface", True), "stats",
                             stats) is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "hyp-tree", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
