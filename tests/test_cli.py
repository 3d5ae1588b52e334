import json

import pytest

from hfock import cli, verify


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

    def test_lerch_zeta(self, capsys, gold):
        code, out, _ = _run(capsys, ["lerch", "--zeta", "2", "1"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(gold["zeta_2_1"], abs=1e-10)

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

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, ["dbar", "--problem", "/nonexistent.json"])
        assert code == 2
        assert "error" in err


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
        assert "n_max must be in [0, 10000]" in err

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

    def test_laplace_past_the_term_cap_exit_code(self, capsys):
        code, _, err = _run(capsys, ["expint", "--x", "1", "--laplace", "-0.999999"])
        assert code == 2
        assert "series terms" in err

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
        ["lerch", "--zeta", "2", "1", "--format", "json"],
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
    ], ids=" ".join)
    def test_ignored_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
