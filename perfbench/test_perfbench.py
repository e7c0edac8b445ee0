"""Fast self-test of the benchmark: both workloads at a tiny size, with checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from workloads import WORKLOADS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True, out=lambda line: None)
    json.dumps(result, allow_nan=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
    if trace:
        calls = {n: m["value"] for n, m in result["metrics"].items() if n.endswith(".calls")}
        busy = {"fit_smooth": ["cli.fit", "fitting.fit_jacobian", "kernels.lbs"],
                "pose_export": ["cli.pose", "formats.write_obj", "integration.copy_paste"]}
        assert all(calls[f"{n}.calls"] > 0 for n in busy[workload])
    # The tracer put every original function back.
    for name, mod in list(sys.modules.items()):
        if name.startswith("mocapkit"):
            assert not any(hasattr(v, "perfbench_span") for v in vars(mod).values())


def _setup_and_run(workload, tmp_path):
    main = run.load_cli(run.ROOT)
    wl = WORKLOADS[workload](tiny=True)
    wl.setup(lambda argv: run.call_cli(main, argv), str(tmp_path), seed=3)
    ok, _ = run.run_pass(main, wl.units[0])
    assert ok
    assert wl.units[0].check() == (set(), [])
    return wl


def _edit_doc(path, edit):
    doc = json.loads(Path(path).read_text())
    edit(doc)
    Path(path).write_text(json.dumps(doc))


def test_pose_export_checks_catch_wrong_outputs(tmp_path):
    wl = _setup_and_run("pose_export", tmp_path)
    unit = wl.units[0]
    joints = wl.paths["joints.json"]
    original = Path(joints).read_text()

    def nudge(doc):
        doc["frames"][1]["joints"][5][0] += 1e-6
    _edit_doc(joints, nudge)
    failed, problems = unit.check()
    assert 1 in failed and problems

    Path(joints).write_text(original)
    Path(sorted(tmp_path.glob("pose/out/mesh*.obj"))[0]).unlink()
    failed, _ = unit.check()
    assert failed == set(unit.frames)


def test_fit_smooth_checks_catch_non_finite_outputs(tmp_path):
    wl = _setup_and_run("fit_smooth", tmp_path)
    unit = wl.units[0]
    assert np.isfinite(wl.accuracy_errors_px()).all()
    out = unit.outputs()[0]

    def poison(doc):
        doc["frames"][0]["theta"][3][1] = float("nan")
    _edit_doc(out, poison)
    failed, _ = unit.check()
    assert unit.frames[0] in failed


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pose_export", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
