import json
import math

import pytest

from sectorlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDensityCommand:
    def test_even_annuli_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "density", "--annuli", "evens",
                               "--horizon", "120", "--out", str(tmp_path))
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert abs(summary["upper"] - 0.5) < 0.02
        assert abs(summary["lower"] - 0.5) < 0.02
        csv = (tmp_path / "density_profile.csv").read_text()
        assert csv.splitlines()[0] == "r,ratio,error"

    def test_full_annuli_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--annuli", "all",
                               "--horizon", "40")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["upper"] == pytest.approx(1.0, abs=1e-9)

    def test_translated_profile_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--annuli", "evens",
                               "--horizon", "100", "--t0", "3,1")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["translated"]["upper_gap"] <= 0.02

    def test_set_json_literal(self, capsys):
        rects = json.dumps([{"r_lo": 0.0, "r_hi": 5.0,
                             "th_lo": -math.pi / 4, "th_hi": math.pi / 4}])
        code, out, _ = run_cli(capsys, "density", "--set-json", rects,
                               "--horizon", "20")
        assert code == 0

    def test_missing_spec_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "density")
        assert code == 2
        assert "config error" in err

    def test_translated_profile_is_exact(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "density", "--annuli", "evens", "--horizon", "30",
                             "--t0", "2,0.5", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "density_profile_translated.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",")[2] == "0.0" for row in rows)

    # an unknown key, a value GridConfig rejects, not an object
    @pytest.mark.parametrize("grid", [{"n_rr": 5}, {"n_theta": -3}, [400, 512]])
    def test_bad_grid_config_is_config_error(self, capsys, tmp_path, grid):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": grid}))
        code, out, err = run_cli(capsys, "density", "--annuli", "evens", "--horizon", "20",
                                 "--t0", "1,0", "--config", str(cfg))
        assert code == 2
        assert "config error" in err and "grid" in err
        assert "Traceback" not in err and out == ""

    def test_good_grid_config_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n_r": 400, "n_theta": 512, "theta_step": 0.02}}))
        code, _, _ = run_cli(capsys, "density", "--annuli", "evens", "--horizon", "20",
                             "--t0", "1,0", "--config", str(cfg))
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--annuli", "evens",
                               "--horizon", "30", "--format", "json")
        assert code == 0
        payload = json.loads(out.splitlines()[0])
        assert set(payload) == {"r", "ratio", "error"}


class TestCheckCommand:
    def test_dc_sufficient_exp_decay(self, capsys):
        code, out, _ = run_cli(capsys, "check", "dc-sufficient",
                               "--family", "exp_decay", "--kmax", "60")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "convergent-trend"
        assert report["limit_estimate"] == pytest.approx(math.pi / 2, rel=1e-6)

    def test_dc_sufficient_failure_exit(self, capsys):
        code, out, _ = run_cli(capsys, "check", "dc-sufficient",
                               "--family", "vertical_exp", "--kmax", "40")
        assert code == 1
        assert json.loads(out)["verdict"] == "divergent-trend"

    def test_devaney_ray(self, capsys):
        code, out, _ = run_cli(capsys, "check", "devaney-ray",
                               "--family", "vertical_exp", "--t1", "2,-1",
                               "--kmax", "50")
        assert code == 0
        report = json.loads(out)
        assert report["partial_sum"] == pytest.approx(1.156518, abs=1e-6)

    def test_devaney_ray_needs_direction(self, capsys):
        code, _, err = run_cli(capsys, "check", "devaney-ray",
                               "--family", "vertical_exp")
        assert code == 2

    def test_admissible_pass_and_fail(self, capsys):
        code, out, _ = run_cli(capsys, "check", "admissible",
                               "--family", "exp_decay", "--M", "1", "--w", "1")
        assert code == 0 and json.loads(out)["ok"] is True
        code, out, _ = run_cli(capsys, "check", "admissible",
                               "--family", "exp_decay", "--M", "1", "--w", "0")
        assert code == 1 and json.loads(out)["ok"] is False

    def test_witness_small_horizon(self, capsys):
        code, out, _ = run_cli(capsys, "check", "witness",
                               "--family", "exp_decay", "--horizon", "6")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["min_norm"] >= report["delta"] - 1e-4

    def test_input_outside_domain_is_config_error(self, capsys):
        # annulus 9 lies beyond the horizon: a bad input, not a failed check
        code, out, err = run_cli(capsys, "check", "witness", "--K", "finite:9",
                                 "--horizon", "6")
        assert code == 2
        assert out == "" and "no separation bands" in err

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "bogus"])
        assert exc.value.code == 64

    def test_config_file_weight_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weight": {"family": "poly_decay"}}))
        code, out, _ = run_cli(capsys, "check", "dc-sufficient",
                               "--config", str(cfg), "--kmax", "60")
        assert code == 0
        report = json.loads(out)
        assert report["weight"] == "poly_decay"
        assert report["limit_estimate"] == pytest.approx(math.pi ** 2 / 8, rel=1e-6)

    def test_config_index_set_dict(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": {"kind": "finite", "members": [1, 2]}}))
        code, out, _ = run_cli(capsys, "check", "dc-sufficient",
                               "--config", str(cfg), "--kmax", "10")
        assert code == 0
        assert json.loads(out)["K"] == "finite {1, 2}"

    def test_config_index_set_for_witness(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": "evens"}))
        code, out, _ = run_cli(capsys, "check", "witness", "--config", str(cfg),
                               "--horizon", "6")
        assert code == 0
        assert json.loads(out)["K"] == "k = 0 + 2 j"

    def test_unknown_index_set_spec(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", "dc-sufficient", "--K", "primes")
        assert code == 2
        assert "config error" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": {"kind": "primes"}}))
        code, _, err = run_cli(capsys, "check", "dc-sufficient", "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "check", "dc-sufficient",
                               "--config", str(cfg))
        assert code == 2


class TestReproduceCommand:
    def test_unknown_example_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "no-such-example"])
        assert exc.value.code == 64

    def test_devaney_example_passes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "devaney-not-dc",
                               "--out", str(tmp_path))
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 5 and all(l.startswith("PASS") for l in lines)
        payload = json.loads((tmp_path / "devaney-not-dc.json").read_text())
        assert payload["passed"] is True

    def test_no_subcommand_is_usage(self, capsys):
        assert main([]) == 64


class TestReproducibility:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            code, _, _ = run_cli(capsys, "density", "--annuli", "nonsquares",
                                 "--horizon", "80", "--t0", "2,0.5",
                                 "--seed", "7", "--out", str(out_dir))
            assert code == 0
        for name in ("density_profile.csv", "density_profile_translated.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        for out_dir in (a, b):
            code, _, _ = run_cli(capsys, "reproduce", "devaney-not-dc",
                                 "--out", str(out_dir))
            assert code == 0
        name = "devaney-not-dc.json"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_check_report_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "check", "admissible", "--family",
                             "vertical_exp", "--M", "1", "--w", "2")
        _, out2, _ = run_cli(capsys, "check", "admissible", "--family",
                             "vertical_exp", "--M", "1", "--w", "2")
        assert out1 == out2
