"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs briefly with and without tracing; the result line must
carry exactly the metrics BENCHMARK.json names, with every check passing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert detail["missing_boundaries"] == []
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["totals_repeat"] in ("match", "first run")


def test_same_seed_repeats_simulated_totals():
    first, second = (run(ROOT, "query-mix", 0, seed=11) for _ in range(2))
    totals = [json.loads(d.stdout.strip().splitlines()[-2])["detail"]["totals"]
              for d in (first, second)]
    assert totals[0] == totals[1]
    assert json.loads(second.stdout.strip().splitlines()[-2])["detail"]["totals_repeat"] == "match"


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "_work", "__pycache__"))
    done = run(tmp_path, "query-mix", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tracer_rebinds_copies_reports_missing_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import inbl.cli
    import inbl.search
    from tracer import Tracer

    original = inbl.search.full_string_search
    tracer = Tracer()
    tracer._rebind("inbl.search", "no_such_protocol", "search.none", tracer._timed_wrapper)
    tracer.install()
    try:
        assert inbl.search.full_string_search is not original
        assert inbl.cli.full_string_search is inbl.search.full_string_search
    finally:
        tracer.uninstall()
    assert inbl.search.full_string_search is original
    assert inbl.cli.full_string_search is original
    assert tracer.missing == ["inbl.search.no_such_protocol"]
