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


@pytest.mark.parametrize("runs, flagged", [
    ([1.0, 1.0, 1.0, 2.0, 2.0, 2.0], True),
    ([1.0, 1.0, 1.0, 1.0, 2.0], False),  # one run alone above the gap
    ([1.0, 1.02, 1.04, 1.08, 1.1], False),  # no gap wider than 5 % of the median
    ([1.0, 1.5, 2.3, 2.6, 3.0], False),  # the gap is narrower than the other runs' spread
    ([1.0, 2.0, 2.0], False),
])
def test_two_clusters_rule(runs, flagged):
    assert bench._two_clusters(runs) is flagged
    assert bench._spread(runs)["two_clusters"] is flagged


def test_two_clusters_flags_on_bench_37(capsys):
    # the rule on a committed BENCH file; the flag is printed and judges nothing
    doc = json.loads((_ROOT / "BENCH_37.json").read_text())
    flagged = {(workload, name, side) for workload, body in doc["workloads"].items()
               for name, s in body["summary"].items() if name != "failed"
               for side in bench.SIDES if bench._two_clusters(s[side]["runs"])}
    assert flagged == {("gram", "op_p50_ms", "parent"), ("gram", "op_p50_ms", "change"),
                       ("gram", "ops_per_s", "parent"), ("gram", "op_tail_ms", "parent"),
                       ("gram", "setup_s", "change"), ("verify", "setup_s", "change"),
                       ("verify", "op_tail_ms", "parent")}
    runs = [{side: {"op_p50_ms": s[side]["runs"][i], "failed": 0} for side in bench.SIDES}
            for s in [doc["workloads"]["gram"]["summary"]["op_p50_ms"]] for i in range(10)]
    bench._print_summary("gram", bench._summary(runs, {"op_p50_ms": "lower"}))
    assert "two clusters: parent, change" in capsys.readouterr().out


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
    assert "ratio 1.2500" in out and "runs from different sessions" in out
    assert "has no quadrature setup_s" in out and "has no workload gram" in out
    assert bench.main(["--compare", prev, str(tmp_path / "missing.json")]) == 0
    assert "cannot compare" in capsys.readouterr().out


def _git(cwd, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                          capture_output=True, text=True, check=True).stdout.strip()


def test_trajectory_multiplies_chained_ratios_and_breaks_where_src_moved(tmp_path, capsys,
                                                                         monkeypatch):
    # three commits: the second leaves src/ as the first has it, the third changes it
    try:
        _git(tmp_path, "init", "-q")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("no git")
    commits = []
    for i, text in enumerate(["a = 1\n", "a = 1\n", "a = 2\n"]):
        (tmp_path / "src").mkdir(exist_ok=True)
        (tmp_path / "src" / "m.py").write_text(text)
        (tmp_path / "notes.txt").write_text(str(i))
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-q", "-m", str(i))
        commits.append(_git(tmp_path, "rev-parse", "HEAD"))

    def bench_file(name, parent, change, ratio):
        s = {"median_ratio_change_over_parent": ratio,
             "parent": {"q1": 9.0, "q3": 11.0}, "change": {"q1": 9.0 * ratio, "q3": 11.0 * ratio}}
        path = tmp_path / name
        path.write_text(json.dumps({"parent": {"commit": parent}, "change": {"commit": change},
                                    "workloads": {"gram": {"summary": {"ops_per_s": s}}}}))
        return name

    monkeypatch.chdir(tmp_path)
    # a -> b chains (b's parent has a's src/), b -> c breaks (c's parent moved src/)
    files = [bench_file("a.json", commits[0], commits[0], 1.1),
             bench_file("b.json", commits[1], commits[1], 1.2),
             bench_file("c.json", commits[2], commits[2], 0.5)]
    assert bench.main(["--trajectory", *files]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a.json -> b.json: chained"
    assert out[1] == (f"b.json -> c.json: break, {commits[1][:7]} and {commits[2][:7]} "
                      "differ in src/ or perfbench/")
    assert out[3] == ("gram        ops_per_s   1.1000 1.2000 | 0.5000  product 1.3200 "
                      "[0.8836, 1.9719] | 0.5000 [0.4091, 0.6111]")


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
