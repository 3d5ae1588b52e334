"""tools/bench.py: its statistics, its comparison and one run with the
perfbench runs stubbed out, the parent exported by ``git archive``."""
import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench", _ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _pair(parent, change, metric="ops_per_s"):
    return {"parent": {metric: parent, "failed": 0}, "change": {metric: change, "failed": 1}}


def test_summary_counts_wins_by_the_direction_of_better():
    runs = [_pair(10.0, 12.0), _pair(10.0, 10.0), _pair(11.0, 9.0), _pair(9.0, 13.0)]
    higher = bench._summary(runs, {"ops_per_s": "higher"})["ops_per_s"]
    lower = bench._summary(runs, {"ops_per_s": "lower"})["ops_per_s"]
    # a tie counts for neither side
    assert (higher["change_wins"], lower["change_wins"], higher["pairs"]) == (2, 1, 4)
    assert higher["parent"]["median"] == 10.0 and higher["change"]["median"] == 11.0
    assert higher["median_ratio_change_over_parent"] == 1.1
    assert bench._summary(runs, {})["failed"] == {"parent": [0] * 4, "change": [1] * 4}


def test_spread_uses_inclusive_quartiles():
    s = bench._spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["iqr_over_median"]) == (2.0, 3.0, 4.0, 2.0 / 3.0)
    assert bench._spread([7.0])["q1"] == 7.0


def _bench_file(path, workloads):
    path.write_text(json.dumps({"workloads": {
        w: {"summary": {name: {"better": "higher", "change": {"median": m}}
                        for name, m in metrics.items()}}
        for w, metrics in workloads.items()}}))
    return str(path)


def test_compare_prints_ratios_warns_and_never_fails(tmp_path, capsys):
    prev = _bench_file(tmp_path / "prev.json", {"quadrature": {"ops_per_s": 4000.0}})
    cur = _bench_file(tmp_path / "cur.json", {"quadrature": {"ops_per_s": 5000.0, "setup_s": 1.0},
                                              "gram": {"ops_per_s": 900.0}})
    assert bench.main(["--compare", prev, cur]) == 0
    out = capsys.readouterr().out
    assert "ratio 1.2500" in out
    assert "has no quadrature setup_s" in out and "has no workload gram" in out
    assert bench.main(["--compare", prev, str(tmp_path / "missing.json")]) == 0
    assert "cannot compare" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--out", "x.json", "--seed-base", "1"],
                                  ["--parent", "HEAD", "--seed-base", "1"],
                                  ["--parent", "HEAD", "--out", "x.json"],
                                  ["--parent", "HEAD", "--out", "x.json", "--seed-base", "1",
                                   "--pairs", "0"],
                                  ["--compare", "a.json"],
                                  ["--seconds", "3"]])
def test_refuses_an_incomplete_run(argv):
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code == 2


def test_run_alternates_sides_over_an_exported_parent(tmp_path, monkeypatch):
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    calls, parents = [], set()

    def fake_run_side(root, workload, seed, seconds):
        side = "change" if root == str(_ROOT) else "parent"
        # the parent side is the committed tree, exported beside the change
        if side == "parent":
            assert (Path(root) / "perfbench" / "run.py").is_file()
            parents.add(root)
        calls.append((side, workload, seed, seconds))
        value = 2.0 if side == "change" else 1.0
        return {"result": {"failed": 0, "correct": 5, "metrics": {
                    "ops_per_s": {"value": value}, "op_p50_ms": {"value": 1 / value}}},
                "record": {"python": "3", "calibration_s": 0.1}}

    monkeypatch.chdir(_ROOT)
    monkeypatch.setattr(bench, "_run_side", fake_run_side)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--pairs", "3", "--seed-base", "40", "--out", str(out)]
    assert bench.main(argv) == 0
    doc = json.loads(out.read_text())
    seconds = float(json.loads((_ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    workloads = [w["name"] for w in json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent",
                                     "parent", "change"] * len(workloads)
    assert {c[1:] for c in calls} == {(w, s, seconds) for w in workloads for s in (40, 41, 42)}
    assert list(doc["workloads"]) == workloads
    assert doc["parent"]["commit"] == head and doc["seconds"] == seconds
    assert doc["tool_command"] == "python3 tools/bench.py " + " ".join(argv)
    summary = doc["workloads"]["gram"]["summary"]
    assert summary["ops_per_s"]["change_wins"] == summary["op_p50_ms"]["change_wins"] == 3
    # the exported parent is removed at the end
    assert not os.path.exists(parents.pop()) and not parents
