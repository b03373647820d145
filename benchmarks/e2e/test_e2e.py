"""Self-test of the end-to-end benchmark (run explicitly, < 60 s):

    python3 -m pytest benchmarks/e2e/test_e2e.py -q

Everything runs at ``--scale 0.02``: the point is that every workload,
probe and output path executes and keeps the contract, not the numbers.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import adapter  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.02
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = run.load_spec()


def test_adapter_surface_imports():
    for name in adapter.__all__:
        assert getattr(adapter, name) is not None, name


def test_benchmark_json_names_and_limits():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    with open(HERE / "layer_map.json") as handle:
        mapped = json.load(handle)["metrics"]
    for metric in SPEC["per_layer"]:
        generic = re.sub(r"^[a-z]+\.(self_share|pycalls_per_op)$", r"<layer>.\1",
                         metric["name"])
        assert generic in mapped, f"{metric['name']} has no layer_map entry"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_is_correct_and_deterministic(name):
    cls = WORKLOADS[name]
    first = run.run_pass(cls, 3, SCALE)
    again = run.run_pass(cls, 3, SCALE)
    other = run.run_pass(cls, 4, SCALE)
    assert first["problems"] == []
    assert first["ops"] > 0 and first["unexpected"] == 0
    assert sum(first["counts"].values()) == first["ops"]
    assert again["digest"] == first["digest"]
    assert again["sim"] == first["sim"]
    assert other["digest"] != first["digest"]


def test_every_probe_executes():
    for name, batch in probes.build_probes().items():
        assert batch() > 0, name


def test_traced_run_emits_every_declared_layer_metric():
    result = run.run_traced(WORKLOADS["openloop_observed"], 3, 0.5, SCALE)
    assert result["problems"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    shares = [v for k, v in result["metrics"].items() if k.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 0.01
    assert result["metrics"]["obs.self_share"] > 0.05


def test_driver_contract_of_one_run():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "closed_lookup",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--scale", str(SCALE)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = last["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_compare_verdicts():
    metric = {"name": "ops_per_s", "better": "higher", "bound": 0.10}

    def side(value, low, high):
        return {"metrics": {"ops_per_s": value}, "ranges": {"ops_per_s": [low, high]}}

    assert run.verdict(metric, side(100, 98, 102), side(101, 99, 103)) == "same"
    assert run.verdict(metric, side(100, 98, 102), side(85, 84, 86)) == "worse"
    assert run.verdict(metric, side(100, 98, 102), side(120, 118, 122)) == "better"
    assert run.verdict(metric, side(100, 90, 110), side(101, 92, 111)) == "unresolved"
