"""Smoke test of the benchmark itself, at tiny extents.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def args(workload, seed=1, trace=0):
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--scale", "tiny"]


def run(workload, seed=1, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), *args(workload, seed, trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    code, _, result = run(workload, trace=trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_wrong_expected_verdict_fails_the_check(tmp_path, monkeypatch,
                                                  capsys):
    verdicts = json.loads(bench.VERDICTS.read_text())
    verdicts["table1"]["GFMC*"][0]["cl"] = True  # the paper says unsafe
    path = tmp_path / "verdicts.json"
    path.write_text(json.dumps(verdicts))
    monkeypatch.setattr(bench, "VERDICTS", path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = bench.main(args("table1-analyze"))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_inputs_not_metric_names(workload):
    runs = [run(workload, seed=seed) for seed in (1, 2)]
    digests = [next(line for line in lines if line.startswith("inputs "))
               .split()[1] for _, lines, _ in runs]
    assert digests[0] != digests[1]
    assert runs[0][2]["metrics"].keys() == runs[1][2]["metrics"].keys()


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
