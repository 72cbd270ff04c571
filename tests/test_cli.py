import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sectorlab.cli import _build_parser, main


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

    def test_negative_window_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "density", "--annuli", "evens",
                               "--horizon", "20", "--window", "-3")
        assert code == 2
        assert "window" in err

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

    # the grid has no effect, but a malformed one is still rejected: an
    # unknown key, a bad value, not an object
    @pytest.mark.parametrize("grid", [{"n_rr": 5}, {"n_theta": -3}, [400, 512],
                                      {"n_r": 0}, {"n_r": 2.5}, {"n_theta": 0},
                                      {"theta_step": 0.0}, {"theta_step": -0.01},
                                      {"theta_step": "0.01"}, {"n_r": True}])
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

    @pytest.mark.parametrize("spec", ["@/missing.json", '[{"r_lo": 1}]', '[{"r_lo": 1',
                                      '{"r_lo": 1}'])
    def test_bad_set_json_is_config_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "density", "--set-json", spec, "--horizon", "20")
        assert code == 2
        assert "config error" in err and "--set-json" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("spec", [
        '[{"r_lo": 0, "r_hi": true, "th_lo": -0.5, "th_hi": 0.5}]',
        '[{"r_lo": 0, "r_hi": Infinity, "th_lo": -0.5, "th_hi": 0.5}]',
        '[{"r_lo": 0, "r_hi": 1, "th_lo": -0.5}]',
        '{"rects": [{"r_lo": 0, "r_hi": 1, "th_lo": -0.5, "th_hi": 0.5}]}',
    ], ids=["bool", "infinity", "no-th_hi", "not-a-list"])
    def test_set_json_breaking_the_rect_rule_is_config_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "density", "--set-json", spec, "--horizon", "20")
        assert code == 2 and out == ""
        assert "config error" in err and "--set-json" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, config", [
        (["density", "--annuli", "evens", "--horizon", "1e308"], None),
        (["density", "--annuli", "evens"], {"horizon": 1e308}),
        (["check", "witness", "--horizon", "1e308"], None),
    ], ids=["density-flag", "density-config", "witness-flag"])
    def test_huge_horizon_is_config_error(self, capsys, tmp_path, command, config):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            command = command + ["--config", str(tmp_path / "cfg.json")]
        code, out, err = run_cli(capsys, *command)
        assert code == 2 and out == ""
        assert "config error" in err and "horizon must be <= 10000" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--annuli", "evens",
                               "--horizon", "30", "--format", "json")
        assert code == 0
        payload = json.loads(out.splitlines()[0])
        assert set(payload) == {"r", "ratio", "error"}


def test_benchmark_harness_drives_the_library(tmp_path):
    # perfbench/ patches the package and passes its own arguments; no other
    # test imports it, so a renamed or deleted name would break it unseen
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"n_r": 400, "n_theta": 512}}))
    script = """
import json, sys
import sectorlab
import workloads
from tracer import Tracer
tracer = Tracer()
tracer.install(sectorlab)
tracer.op = 0
from sectorlab.cli import main
sectorlab.OrbitResolution(**workloads.ORBIT_RES)
code = main(["density", "--annuli", "evens", "--horizon", "30", "--t0", "1,0.5",
             "--config", sys.argv[1], "--out", sys.argv[2]])
space = sectorlab.LpSpace(sectorlab.exp_decay(), 2.0, sectorlab.Sector(0.7))
ind = sectorlab.indicator(sectorlab.annuli_union([1], space.sector))
bump = sectorlab.bump(1.5, 0.5, 2.0)
for f in (ind, bump, sectorlab.linear_combination([(1.0, ind), (-0.5, bump)]),
          sectorlab.custom_function(lambda z: 0.0 * z.real + 1.0, support_radius=1.0)):
    sectorlab.lp_norm(space, f)
print(json.dumps(sorted({span[0] for span in tracer.spans})))
sys.exit(code)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.splitlines()[-1])
    assert {"cli.main", "density.density_profile.rect", "sets.measure_profile"} <= set(spans)
    # the tracer names lp_norm spans by the kind of the function
    assert {f"lpspace.lp_norm.{kind}" for kind in ("indicator", "bump", "combination", "custom")
            } <= set(spans)


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

    # annulus 9 lies beyond the horizon, and a ray series needs k_max >= 1:
    # a bad input, not a failed check, so no report is written
    @pytest.mark.parametrize("argv, message", [
        (["check", "witness", "--K", "finite:9", "--horizon", "6"], "no separation bands"),
        (["check", "devaney-ray", "--t1", "2,1", "--kmax", "-1"],
         "config error: devaney_ray_series.k_max must be >= 1, got -1"),
    ], ids=["witness-beyond-horizon", "devaney-kmax-negative"])
    def test_input_outside_domain_is_config_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and message in err

    @pytest.mark.parametrize("check", ["admissible", "witness"])
    def test_negative_seed_is_config_error(self, capsys, check):
        code, out, err = run_cli(capsys, "check", check, "--seed", "-1")
        assert code == 2 and out == ""
        assert "config error: --seed must be >= 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["density", "--annuli", "evens", "--horizon", "20", "--t0", "inf,0"],
        ["density", "--annuli", "evens", "--horizon", "20", "--t0", "1,nan"],
        ["check", "devaney-ray", "--t1", "inf,0"],
        ["check", "devaney-ray", "--t1", "2,-inf"],
    ], ids=["density-inf", "density-nan", "devaney-inf", "devaney-minus-inf"])
    def test_point_that_is_not_finite_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "config error" in err and "finite coordinates" in err

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

    @pytest.mark.parametrize("K", [3, [1, 2], {"kind": "finite", "members": 5},
                                   # no string is a member list, no value is truncated
                                   {"kind": "finite", "members": "12"},
                                   {"kind": "finite", "members": [1.0, 2]},
                                   {"kind": "arith", "start": 1.7, "step": 2.9},
                                   {"kind": "arith", "start": True, "step": 2}])
    @pytest.mark.parametrize("check", ["dc-sufficient", "witness"])
    def test_malformed_index_set_in_config(self, capsys, tmp_path, check, K):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": K}))
        code, _, err = run_cli(capsys, "check", check, "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("K, described", [("finite:1,2", "finite {1, 2}"),
                                              ("arith:1:3", "k = 1 + 3 j")])
    def test_index_set_strings_still_parse(self, capsys, K, described):
        code, out, _ = run_cli(capsys, "check", "dc-sufficient", "--K", K, "--kmax", "10")
        assert code in (0, 1)
        assert json.loads(out)["K"] == described

    @pytest.mark.parametrize("command, cfg", [
        (["check", "dc-sufficient"], {"weight": 3}),
        (["check", "dc-sufficient"], {"weight": {"family": "constant", "params": {"value": "2"}}}),
        (["check", "dc-sufficient"], {"weight": {"family": "constant", "params": {"value": -1}}}),
        (["check", "dc-sufficient"], {"weight": {"family": "constant", "params": 2}}),
        (["check", "dc-sufficient"], {"weight": {"family": "exp_decay",
                                                 "certificate": {"M": "x", "w": 1.0}}}),
        (["check", "dc-sufficient"], {"weight": {"family": "exp_decay",
                                                 "certificate": {"M": 1.0}}}),
        (["density", "--annuli", "evens"], {"horizon": "30"}),
        (["density", "--annuli", "evens"], {"horizon": 0}),
        (["density", "--annuli", "evens"], {"horizon": True}),
    ])
    def test_config_value_of_the_wrong_type(self, capsys, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, *command, "--config", str(path))
        assert code == 2 and out == ""
        assert "config error" in err and next(iter(cfg)) in err

    @pytest.mark.parametrize("command", [["density", "--annuli", "evens"], ["check", "witness"]])
    def test_horizon_zero_is_not_the_default(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--horizon", "0")
        assert code == 2 and out == ""
        assert "config error" in err and "horizon" in err

    @pytest.mark.parametrize("command", [["check", "dc-sufficient"], ["check", "witness"],
                                         ["density", "--annuli", "evens", "--horizon", "20"]])
    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"all"'])
    def test_config_that_is_not_an_object(self, capsys, tmp_path, command, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == 2
        assert "config error" in err and "JSON object" in err

    @pytest.mark.parametrize("command", [["check", "dc-sufficient"], ["check", "witness"],
                                         ["density", "--annuli", "evens", "--horizon", "20"]])
    @pytest.mark.parametrize("alpha", ["0.5", [0.5], None, True])
    def test_half_angle_that_is_not_a_real_number(self, capsys, tmp_path, command, alpha):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": alpha}))
        code, _, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == 2
        assert f"config error: Sector.alpha must be of type number, got {alpha!r}" in err

    @pytest.mark.parametrize("p", ["2", [2], None, False])
    def test_exponent_that_is_not_a_real_number(self, capsys, tmp_path, p):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": p}))
        code, _, err = run_cli(capsys, "check", "witness", "--config", str(cfg))
        assert code == 2
        assert f"config error: LpSpace.p must be of type number, got {p!r}" in err

    def test_bad_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "check", "dc-sufficient",
                               "--config", str(cfg))
        assert code == 2


# one value of each JSON type; integral 3 is an integer and a number
WRONG = {"null": None, "boolean": True, "integer": 3, "number": 2.5, "string": "x",
         "array": [1], "object": {"a": 1}}
DC, WITNESS, DENSITY = (["check", "dc-sufficient"], ["check", "witness"],
                        ["density", "--annuli", "evens", "--horizon", "20"])
# (commands that read the key, the config with the value put at the key,
# the JSON types the key takes)
READS = [
    ((DC, WITNESS, DENSITY), lambda x: {"alpha": x}, {"integer", "number"}),
    ((DC, WITNESS), lambda x: {"weight": x}, {"object"}),
    ((DC, WITNESS), lambda x: {"weight": {"family": x}}, {"string"}),
    ((DC, WITNESS), lambda x: {"weight": {"family": "constant", "params": x}}, {"object"}),
    ((DC, WITNESS), lambda x: {"weight": {"family": "constant", "params": {"value": x}}},
     {"integer", "number"}),
    ((DC, WITNESS), lambda x: {"weight": {"family": "exp_decay", "certificate": x}},
     {"object", "null"}),
    ((DC, WITNESS), lambda x: {"weight": {"family": "exp_decay",
                                          "certificate": {"M": x, "w": 1.0}}},
     {"integer", "number"}),
    ((DC, WITNESS), lambda x: {"weight": {"family": "exp_decay",
                                          "certificate": {"M": 1.0, "w": x}}},
     {"integer", "number"}),
    ((DC, WITNESS), lambda x: {"K": x}, {"object", "string"}),
    ((DC, WITNESS), lambda x: {"K": {"kind": x}}, {"string"}),
    ((DC, WITNESS), lambda x: {"K": {"kind": "finite", "members": x}}, {"array"}),
    ((DC, WITNESS), lambda x: {"K": {"kind": "finite", "members": [1, x]}}, {"integer"}),
    ((DC, WITNESS), lambda x: {"K": {"kind": "arith", "start": x, "step": 2}}, {"integer"}),
    ((DC, WITNESS), lambda x: {"K": {"kind": "arith", "start": 0, "step": x}}, {"integer"}),
    ((WITNESS,), lambda x: {"p": x}, {"integer", "number"}),
    ((DENSITY[:3],), lambda x: {"horizon": x}, {"integer", "number"}),
    ((DENSITY,), lambda x: {"grid": x}, {"object"}),
    ((DENSITY,), lambda x: {"grid": {"n_r": x}}, {"integer"}),
    ((DENSITY,), lambda x: {"grid": {"n_theta": x}}, {"integer", "null"}),
    ((DENSITY,), lambda x: {"grid": {"theta_step": x}}, {"integer", "number"}),
]
SWEEP = [(command, make(value), f"{' '.join(command[:2])} {make('?')}={kind}")
         for commands, make, takes in READS for command in commands
         for kind, value in WRONG.items() if kind not in takes]


class TestConfigRules:
    @pytest.mark.parametrize("command, cfg, case", SWEEP, ids=[c for _, _, c in SWEEP])
    def test_every_key_read_refuses_every_wrong_type(self, capsys, tmp_path, command, cfg, case):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, *command, "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("config error") and "Traceback" not in err

    def test_a_null_n_theta_is_still_accepted(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"n_theta": None}}))
        code, _, _ = run_cli(capsys, *DENSITY, "--config", str(path))
        assert code == 0


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
                                 "--out", str(out_dir))
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


# the flags each command's code reads; no other flag is parsed
FLAGS = {
    "density": {"--config", "--out", "--horizon", "--format", "--annuli", "--set-json",
                "--kmax", "--t0", "--alpha", "--window"},
    "admissible": {"--config", "--out", "--seed", "--family", "--alpha", "--M", "--w"},
    "dc-sufficient": {"--config", "--out", "--family", "--alpha", "--K", "--kmax"},
    "devaney-ray": {"--config", "--out", "--family", "--alpha", "--kmax", "--t1"},
    "witness": {"--config", "--out", "--seed", "--horizon", "--family", "--alpha", "--K",
                "--p"},
    "reproduce": {"--out"},
}
PREFIX = {"density": ["density", "--annuli", "evens", "--horizon", "20"],
          "reproduce": ["reproduce", "devaney-not-dc"]}
VALUES = {"--seed": "7", "--horizon": "6", "--format": "json", "--p": "2", "--M": "1",
          "--w": "1", "--K": "all", "--kmax": "10", "--t1": "2,-1"}
# every pair that one flag set shared by all commands would accept and
# that the command's code does not read
REFUSED = [("density", "--seed"), ("reproduce", "--config"), ("reproduce", "--seed"),
           ("reproduce", "--horizon"), ("reproduce", "--format")] + [
    (check, flag) for check, flags in {
        "admissible": ("--horizon", "--format", "--p", "--K", "--kmax", "--t1"),
        "dc-sufficient": ("--seed", "--horizon", "--format", "--p", "--M", "--w", "--t1"),
        "devaney-ray": ("--seed", "--horizon", "--format", "--p", "--M", "--w", "--K"),
        "witness": ("--format", "--M", "--w", "--kmax", "--t1")}.items()
    for flag in flags]


def subparsers(parser):
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


class TestFlagSurface:
    def test_each_command_parses_the_flags_it_reads(self):
        found = {}
        for name, parser in subparsers(_build_parser()).items():
            for command, sub in (subparsers(parser) or {name: parser}).items():
                found[command] = {s for a in sub._actions for s in a.option_strings
                                  if s.startswith("--") and s != "--help"}
        assert found == FLAGS
        assert sum(map(len, found.values())) == 38

    @pytest.mark.parametrize("command, flag", REFUSED, ids=[f"{c}-{f}" for c, f in REFUSED])
    def test_a_flag_its_command_does_not_read_is_usage_error(self, capsys, tmp_path,
                                                             command, flag):
        # the config holds no object, so reading it would exit 2
        (tmp_path / "cfg.json").write_text("[1]")
        value = str(tmp_path / "cfg.json") if flag == "--config" else VALUES[flag]
        argv = PREFIX.get(command, ["check", command]) + [flag, value,
                                                          "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 64 and out.out == ""
        assert f"unrecognized arguments: {flag}" in out.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, usage", [
        (["density", "--annuli", "evens", "--w", "3"], "sectorlab density"),
        (["check", "witness", "--hor", "6"], "sectorlab check witness"),
        (["check", "witness", "--kmax", "100"], "sectorlab check witness"),
    ], ids=["density-prefix", "witness-prefix", "witness-unread"])
    def test_an_unread_flag_shows_its_command_usage(self, capsys, tmp_path, argv, usage):
        # a prefix of a flag is not that flag
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        out = capsys.readouterr()
        assert exc.value.code == 64 and out.out == ""
        assert out.err.startswith(f"usage: {usage} [-h]")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err
        assert not (tmp_path / "out").exists()

    RECT = '[{"r_lo": 0, "r_hi": 5, "th_lo": -0.5, "th_hi": 0.5}]'

    @pytest.mark.parametrize("argv, message", [
        (["--annuli", "evens", "--set-json", RECT], "not allowed with argument --annuli"),
        (["--set-json", RECT, "--kmax", "3"], "--kmax: not allowed with argument --set-json"),
    ], ids=["annuli-and-set-json", "set-json-and-kmax"])
    def test_a_density_set_is_given_one_way(self, capsys, tmp_path, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--horizon", "20", *argv, "--out", str(tmp_path / "out")])
        out = capsys.readouterr()
        assert exc.value.code == 64 and out.out == "" and message in out.err
        assert not (tmp_path / "out").exists()

    def test_a_check_needs_its_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--family", "exp_decay"])
        assert exc.value.code == 64
