import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hfock import cli, verify

_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(_ROOT / "src")


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMoments:
    def test_csv_row_count(self, capsys):
        code, out, _ = _run(capsys, ["moments", "--nmax", "30", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,eta,log_eta,abs_err,route"
        assert len(lines) == 32  # header + 31 data rows

    def test_json_schema_field(self, capsys):
        code, out, _ = _run(capsys, ["moments", "--nmax", "2", "--format", "json"])
        obj = json.loads(out)
        assert code == 0
        assert obj["schema"] == 1
        assert len(obj["entries"]) == 3

    def test_determinism(self, capsys):
        _, out1, _ = _run(capsys, ["moments", "--nmax", "10", "--format", "csv"])
        _, out2, _ = _run(capsys, ["moments", "--nmax", "10", "--format", "csv"])
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = _run(capsys, ["moments", "--nmax", "3", "--out", str(target)])
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,eta,")


class TestValueCommands:
    def test_efun(self, capsys, gold):
        code, out, _ = _run(capsys, ["efun", "--z", "1"])
        obj = json.loads(out)
        assert code == 0
        assert obj["values"][0]["value"][0] == pytest.approx(gold["efun_at_1"], rel=1e-12)

    def test_kernel_conjugate_pair(self, capsys):
        _, out_zw, _ = _run(capsys, ["kernel", "--z", "1", "--w", "0,1"])
        _, out_wz, _ = _run(capsys, ["kernel", "--z", "0,1", "--w", "1"])
        v1 = json.loads(out_zw)["value"]
        v2 = json.loads(out_wz)["value"]
        assert v1[0] == pytest.approx(v2[0], abs=1e-13)
        assert v1[1] == pytest.approx(-v2[1], abs=1e-13)

    def test_expint_family(self, capsys, gold):
        code, out, _ = _run(capsys, ["expint", "--x", "1", "--family", "2"])
        vals = json.loads(out)["values"]
        assert code == 0
        assert vals[1] == pytest.approx(gold["e1_of_1"], abs=1e-13)

    def test_lerch_audit(self, capsys):
        code, out, _ = _run(capsys, ["lerch", "--audit", "phi_tilde:2"])
        obj = json.loads(out)
        assert code == 0
        statuses = {c["name"]: c["status"] for c in obj["conditions"]}
        assert statuses["complete-monotonicity-evidence"] == "evidence"

    def test_bargmann_grid(self, capsys):
        code, out, _ = _run(capsys, ["bargmann", "--z", "0.4,0.1",
                                     "--xmin", "-1", "--xmax", "1", "--nx", "5"])
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "z_re,z_im,x,A_re,A_im"
        assert len(lines) == 6


class TestGram:
    def test_points_file_interface(self, capsys, tmp_path):
        payload = {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "tol": 1e-12}
        path = tmp_path / "points.json"
        path.write_text(json.dumps(payload))
        code, out, _ = _run(capsys, ["gram", "--points-file", str(path)])
        obj = json.loads(out)
        assert code == 0
        assert obj["verdict"] == "psd"
        assert len(obj["matrix"]) == 3
        assert obj["min_eig"] >= -1e-8 * obj["trace"]

    def test_random_seeded(self, capsys):
        _, out1, _ = _run(capsys, ["gram", "--random", "8", "--seed", "5"])
        _, out2, _ = _run(capsys, ["gram", "--random", "8", "--seed", "5"])
        assert out1 == out2

    @pytest.mark.parametrize("values, shape", [
        ([1.0, complex(math.nan, -0.0), complex(-math.inf, 2.5e-300), complex(0.1, math.inf)], (2, 2)),
        ([complex(1.0, -0.0), 1e300, -1e-320, complex(3.0, -7.25)], (2, 2)),
        ([complex(2.0, 1.0)], (1, 1)),
        ([complex(1.0, 2.0), 3.0, -0.0], (1, 3)),
    ], ids=["non-finite", "finite", "one", "row"])
    def test_writer_prints_what_json_prints(self, values, shape):
        # the rows written by format string hold json's bytes, NaN, Infinity
        # and -0.0 included, on hand-built matrices that build_gram refuses
        import numpy as np

        from hfock.space import GramMatrix

        entries = np.array(values, dtype=complex).reshape(shape)
        g = GramMatrix(points=(0j, 1 + 0j), entries=entries, min_eig=math.nan, trace=math.inf)
        want = json.dumps({**g.as_json_obj(), "schema": 1}, sort_keys=True, indent=2) + "\n"
        assert cli._gram_json(g) == want


class TestDbar:
    def test_problem_file(self, capsys, tmp_path):
        payload = {"f": [1.0], "u0": [0.0],
                "samples": [[1.0, 0.0], [0.0, 1.0]], "h": 1e-5}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(payload))
        code, out, _ = _run(capsys, ["dbar", "--problem", str(path)])
        obj = json.loads(out)
        assert code == 0
        assert obj["max_residual"] <= 1e-9
        assert obj["symbolic_zero"] is True
        assert obj["budget"]["ok"] is True

    def test_tiny_high_degree_datum_breaks_the_budget(self, capsys):
        # f = 1e-170 z^180 and u0 = 1: M(f) ~ 6.3e-11 is a normal double,
        # so the budget is finite and the unit u0 exceeds it
        path = Path(__file__).resolve().parent.parent / "tools" / "dbar_problem_tiny_f.json"
        code, out, _ = _run(capsys, ["dbar", "--problem", str(path)])
        budget = json.loads(out)["budget"]
        assert code == 0
        assert budget["budget"] == pytest.approx(1.8934e-10, rel=1e-4)
        assert budget["ok"] is False

    @pytest.mark.parametrize("key", ["f", "u0"])
    def test_empty_series_is_refused(self, capsys, tmp_path, key):
        # an empty f used to print a report for a zero datum, and an empty u0
        # failed inside the moment table under log_eta_sequence's name
        for name in ("dbar_problem.json", "dbar_problem_tiny_f.json"):
            payload = json.loads((_ROOT / "tools" / name).read_text())
            payload[key] = []
            path = tmp_path / name
            path.write_text(json.dumps(payload))
            code, out, err = _run(capsys, ["dbar", "--problem", str(path)])
            assert (code, out) == (2, ""), name
            assert err == ("hfock: error: EntireSeries: degree must be an integer in "
                           "[0, 10000], got -1\n"), name

    def test_missing_file(self, capsys):
        code, out, err = _run(capsys, ["dbar", "--problem", "/nonexistent.json"])
        assert (code, out) == (2, "")
        assert err.startswith("hfock: error: ")
        assert err.count("\n") == 1

    # a directory is an OSError other than FileNotFoundError
    @pytest.mark.parametrize("argv", [["dbar", "--problem"], ["gram", "--points-file"]],
                             ids=["dbar", "gram"])
    def test_directory_is_one_error_line(self, capsys, tmp_path, argv):
        code, out, err = _run(capsys, [*argv, str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("hfock: error: ")
        assert err.count("\n") == 1


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["efun", "--z", "abc"],
        ["kernel", "--z", "1", "--w", "abc"],
        ["lerch", "--phi", "x", "0.5"],
        ["lerch", "--audit", "phi_tilde:x"],
        ["bargmann", "--z", "1", "--nx", "0"],
        ["bargmann", "--z", "1", "--nx", "-3"],
    ], ids=" ".join)
    def test_argument_is_a_configuration_error(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("hfock: error: ")

    @pytest.mark.parametrize("argv, text", [
        (["gram", "--points-file"], "[[0.0, 0.0]"),
        (["gram", "--points-file"], '{"tol": 1e-12}'),
        (["dbar", "--problem"], "f = [1.0]"),
        (["dbar", "--problem"], '{"samples": [[1.0, 0.0]]}'),
        (["dbar", "--problem"], '{"f": [1.0], "u0": [0.0]}'),
        (["gram", "--points-file"], '{"points": [[1, 0], [NaN, 0]]}'),
        (["dbar", "--problem"], '{"f": [1.0], "samples": [[NaN, 0.0]]}'),
        (["gram", "--points-file"], '{"points": [[1e160, 0]]}'),
    ], ids=["gram-not-json", "gram-no-points", "dbar-not-json", "dbar-no-f", "dbar-no-samples",
            "gram-nan-point", "dbar-nan-sample", "gram-huge-point"])
    def test_input_file_is_a_configuration_error(self, capsys, tmp_path, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = _run(capsys, [*argv, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("hfock: error: ")

    @pytest.mark.parametrize("argv, payload, entry", [
        (["gram", "--points-file"], {"points": [1, 2]}, "points[0]"),
        (["gram", "--points-file"], {"points": [[0.0, 0.0], [1.0, "x"]]}, "points[1]"),
        (["dbar", "--problem"], {"f": [1.0], "samples": [[1.0]]}, "samples[0]"),
        (["dbar", "--problem"], {"f": [1.0, [2.0]], "samples": [[1.0, 0.0]]}, "f[1]"),
        (["dbar", "--problem"], {"f": [1.0], "u0": ["0"], "samples": [[1.0, 0.0]]}, "u0[0]"),
        (["dbar", "--problem"], {"f": 1.0, "samples": [[1.0, 0.0]]}, "'f'"),
        (["gram", "--points-file"], {"points": [[0.0, 0.0]], "tol": "x"}, "'tol'"),
        (["dbar", "--problem"], {"f": [1.0], "samples": [[1.0, 0.0]], "h": None}, "'h'"),
    ], ids=["gram-bare-number", "gram-string-part", "dbar-short-sample", "dbar-f-short-pair",
            "dbar-u0-string", "dbar-f-not-a-list", "gram-tol-string", "dbar-h-null"])
    def test_bad_entry_is_named(self, capsys, tmp_path, argv, payload, entry):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out, err = _run(capsys, [*argv, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"hfock: error: {path}: {entry}")

    # a^n or |z|^2 past a double's range, or a negative radius
    @pytest.mark.parametrize("argv", [
        ["expint", "--x", "1", "--n", "3", "--laplace", "1e200"],
        ["expint", "--x", "1", "--n", "20", "--laplace", "1e20"],
        ["gram", "--random", "3", "--radius", "1e160"],
        ["gram", "--random", "3", "--radius", "-1"],
    ], ids=" ".join)
    def test_out_of_range_argument_is_one_error_line(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("hfock: error: ")
        assert err.count("\n") == 1

    # without the Lerch series' guard these loop forever, so each runs in a
    # fresh interpreter whose timeout fails the test instead of hanging it
    @pytest.mark.parametrize("argv", [
        ["lerch", "--phi", "1", "nan"],
    ], ids=" ".join)
    def test_series_guard_ends_the_command(self, argv):
        proc = subprocess.run([sys.executable, "-m", "hfock.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=_SRC),
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("hfock: error: ")
        assert proc.stderr.count("\n") == 1


# flags that a subcommand defines and the chosen mode does not read
_READ_BY_ANOTHER_MODE = [
    ["lerch", "--phi", "2", "0.3,0.4", "--seed", "5"],
    ["gram", "--points-file", "pts.json", "--random", "5", "--seed", "3", "--radius", "1"],
    ["gram", "--points-file", "pts.json", "--seed", "0"],
    ["gram", "--points-file", "pts.json", "--radius", "2"],
    ["expint", "--x", "2", "--family", "3", "--n", "5"],
    ["verify", "expint", "--nmax", "50", "--points", "3"],
    ["verify", "lerch", "--points", "20"],
    ["verify", "bounds", "--points", "20"],
    ["verify", "gfs", "--nmax", "170"],
    ["verify", "bounds", "--seed", "3"],
]


class TestVerify:
    def test_bounds_suite(self, capsys):
        code, out, _ = _run(capsys, ["verify", "bounds", "--nmax", "170"])
        obj = json.loads(out)
        assert code == 0
        assert obj["n_failed"] == 0

    def test_gfs_suite_seeded(self, capsys):
        code, out, _ = _run(capsys, ["verify", "gfs", "--points", "20", "--seed", "7"])
        obj = json.loads(out)
        assert code == 0
        gaps = [c["details"].get("max_gap", 0.0) for c in obj["checks"]]
        assert max(gaps) <= 1e-9

    @pytest.mark.parametrize("nmax", ["10001", "-1"])
    def test_bounds_nmax_out_of_range_is_a_configuration_error(self, capsys, nmax):
        code, out, err = _run(capsys, ["verify", "bounds", "--nmax", nmax])
        assert code == 2
        assert out == ""
        assert "n_max must be an integer in [0, 10000]" in err

    def test_bounds_reports_the_nmax_it_was_given(self, capsys):
        code, out, _ = _run(capsys, ["verify", "bounds", "--nmax", "0"])
        obj = json.loads(out)
        assert code == 0
        assert [c["details"]["n_max"] for c in obj["checks"]] == [0, 0]

    @pytest.mark.parametrize("suite", ["gfs", "moments"])
    @pytest.mark.parametrize("points", ["0", "1"])
    def test_too_few_points_is_a_configuration_error(self, capsys, suite, points):
        code, out, err = _run(capsys, ["verify", suite, "--points", points])
        assert code == 2
        assert out == ""
        assert "points must be >= 2" in err

    def test_report_determinism(self, capsys):
        _, out1, _ = _run(capsys, ["verify", "gfs", "--seed", "11"])
        _, out2, _ = _run(capsys, ["verify", "gfs", "--seed", "11"])
        assert out1 == out2

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "numerics",
                            lambda **kw: [{"name": "forced", "status": "fail",
                                           "details": {}}])
        code, out, _ = _run(capsys, ["verify", "numerics"])
        obj = json.loads(out)
        assert code == 3
        assert obj["failed"] == ["forced"]

    def test_domain_error_exit_code(self, capsys):
        code, _, err = _run(capsys, ["expint", "--n", "1", "--x", "-3"])
        assert code == 2
        assert "error" in err

    def test_laplace_at_order_zero_is_a_configuration_error(self, capsys):
        # E_0's transform diverges: no other order's value stands in for it
        code, out, err = _run(capsys, ["expint", "--x", "1", "--n", "0", "--laplace", "0.5"])
        assert (code, out) == (2, "")
        assert err == "hfock: error: laplace_en: n must be an integer in [1, 10000], got 0\n"

    def test_laplace_near_minus_one_matches_the_oracle(self, capsys, mp_oracle, laplace_bound):
        code, out, _ = _run(capsys, ["expint", "--x", "1", "--laplace", "-0.999999"])
        assert code == 0
        ref = float(mp_oracle.phi(1, 0.999999).real)
        assert abs(json.loads(out)["laplace_value"] - ref) <= laplace_bound(1) * abs(ref)

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["moments", "--bogus"])
        assert exc.value.code == 2

    # a subcommand takes --tol, --format and --seed only where it reads them
    @pytest.mark.parametrize("argv", [
        ["efun", "--z", "1", "--format", "csv"],
        ["expint", "--x", "1", "--format", "json"],
        ["kernel", "--z", "1", "--w", "1", "--format", "json"],
        ["gram", "--format", "json"],
        ["lerch", "--phi", "1", "0.5", "--format", "json"],
        ["lerch", "--phi", "1", "0.5", "--audit", "eta0_K"],
        ["dbar", "--problem", "p.json", "--format", "json"],
        ["verify", "bounds", "--format", "json"],
        ["moments", "--seed", "1"],
        ["expint", "--x", "1", "--seed", "1"],
        ["efun", "--z", "1", "--seed", "1"],
        ["kernel", "--z", "1", "--w", "1", "--seed", "1"],
        ["bargmann", "--z", "1", "--seed", "1"],
        ["dbar", "--problem", "p.json", "--seed", "1"],
        ["expint", "--x", "1", "--tol", "1e-10"],
        ["dbar", "--problem", "p.json", "--tol", "1e-10"],
        ["verify", "all", "--tol", "1e-3"],
        ["lerch", "--audit", "phi_tilde:1", "--tol", "1e-3"],
        ["lerch", "--phi", "2", "0.3,0.4", "--tol", "1e-3"],
        *_READ_BY_ANOTHER_MODE,
    ], ids=" ".join)
    def test_ignored_flags_rejected(self, capsys, argv):
        # argparse refuses a flag that the subcommand does not define; one
        # that only some of its modes read is refused by the others as one
        # error line, before any file is opened
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert argv not in _READ_BY_ANOTHER_MODE
        else:
            err = capsys.readouterr().err
            assert err.startswith("hfock: error: ") and err.count("\n") == 1
            assert " reads no " in err
            assert argv in _READ_BY_ANOTHER_MODE
        assert code == 2

    @pytest.mark.parametrize("argv, defaults", [
        (["lerch", "--audit", "phi_tilde:1"], ["--seed", "0"]),
        (["gram", "--random", "3"], ["--seed", "0", "--radius", "2"]),
        (["gram"], ["--random", "20"]),
        (["expint", "--x", "2", "--laplace", "0.5"], ["--n", "1"]),
        (["verify", "bounds"], ["--nmax", "170"]),
        (["verify", "gfs"], ["--points", "20", "--seed", "0"]),
        (["verify", "expint"], ["--seed", "0"]),
    ], ids=lambda v: " ".join(v))
    def test_flags_a_mode_reads_take_their_defaults(self, capsys, argv, defaults):
        # a flag is refused only where its mode ignores it: spelt out at its
        # default where the mode reads it, it prints what leaving it out prints
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert _run(capsys, argv + defaults) == (0, out, "")


# the commands of tools/cli_digests.txt that do not load numpy, whose
# stdout cannot depend on the BLAS build: (digest, argv)
_DIGESTS = [line.split("  ", 1) for line in
            (_ROOT / "tools" / "cli_digests.txt").read_text().splitlines()
            if not line.startswith("#") and not line.endswith("[blas]")]


@pytest.mark.parametrize("digest, command", _DIGESTS, ids=[c for _, c in _DIGESTS])
def test_stdout_matches_committed_digest(capsys, monkeypatch, digest, command):
    # tools/cli_digest.py --check compares every command, [blas] ones too,
    # in fresh processes; this holds the rest to the file in process
    monkeypatch.chdir(_ROOT)  # the dbar problems are paths relative to the root
    cli.main(command.split())
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
