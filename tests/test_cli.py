"""Tests for the command-line front end."""

import csv
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from sdnop import cli, generator
from sdnop.generator import generate_instance
from sdnop.problem import instance_to_dict, save_instance

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances")
NONDEGEN = os.path.join(INSTANCES, "nondegen_small.json")
DEGEN = os.path.join(INSTANCES, "degen_small.json")
SADDLE = os.path.join(INSTANCES, "saddle_small.json")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _trace_distances(out):
    with open(os.path.join(out, "trace.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    return ([float(r["dist_x"]) for r in rows],
            [float(r["dist_y"]) for r in rows])


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

class TestSolve:
    def test_bundled_instance_converges(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["solve", NONDEGEN, "--out", out])
        assert code == 0
        solution = json.loads(_read(os.path.join(out, "solution.json")))
        assert solution["converged"] is True
        assert solution["residual"]["total"] <= 1e-8
        header = _read(os.path.join(out, "trace.csv")).split(b"\n")[0]
        assert header == ",".join(cli._TRACE_COLUMNS).encode()

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["solve", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    # a file json cannot decode (not UTF-8) or nests too deep for its
    # parser is an input error, not a traceback
    @pytest.mark.parametrize("flag, content", [
        (None, b"\xff\xfe{}"), (None, b"[" * 200_000),
        ("--config", b"\xff\xfe{}")],
        ids=["not-utf8", "deep", "config-not-utf8"])
    def test_unreadable_json_is_input_error(self, tmp_path, capsys, flag,
                                            content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        source = [str(bad)] if flag is None else [NONDEGEN, flag, str(bad)]
        code = cli.main(["solve", *source, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        name = "instance" if flag is None else "config"
        assert err.startswith(f"input error: {name} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_inconsistent_dims_is_input_error(self, tmp_path, capsys):
        data = json.loads(_read(NONDEGEN))
        data["n"] = 5
        mangled = tmp_path / "mangled.json"
        mangled.write_text(json.dumps(data))
        code = cli.main(["solve", str(mangled), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "dims" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        code = cli.main(["solve", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "o")])
        assert code == 1

    def test_max_outer_cap_writes_partial_trace(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["solve", NONDEGEN, "--max-outer", "1",
                         "--out", out])
        assert code == 2
        lines = _read(os.path.join(out, "trace.csv")).strip().split(b"\n")
        assert len(lines) == 2  # header plus the single outer iteration
        solution = json.loads(_read(os.path.join(out, "solution.json")))
        assert solution["converged"] is False
        assert solution["outer_iterations"] == 1

    def test_inner_failure_exit_code(self, tmp_path):
        # from a cold start the saddle instance has unbounded inner
        # subproblems, so the line search cannot reach its target
        code = cli.main(["solve", SADDLE, "--out", str(tmp_path / "o")])
        assert code == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert cli.main(["solve", NONDEGEN, "--out", out_a]) == 0
        assert cli.main(["solve", NONDEGEN, "--out", out_b]) == 0
        for name in ("solution.json", "trace.csv"):
            assert _read(os.path.join(out_a, name)) == \
                _read(os.path.join(out_b, name))

    def test_trace_distances_to_the_reference(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["solve", NONDEGEN, "--out", out]) == 0
        dist_x, dist_y = _trace_distances(out)
        assert all(map(math.isfinite, dist_x + dist_y))
        assert dist_x[-1] < dist_x[0]

    def test_trace_distances_without_reference_are_nan(self, tmp_path):
        def edit(data):
            del data["reference_kkt"]
        out = str(tmp_path / "run")
        assert cli.main(["solve", _mutated(tmp_path, edit), "--out", out]) == 0
        dist_x, dist_y = _trace_distances(out)
        assert dist_x and all(map(math.isnan, dist_x + dist_y))

    def test_config_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_outer": 1}))
        code = cli.main(["solve", NONDEGEN, "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}))
        code = cli.main(["solve", NONDEGEN, "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

class TestCheck:
    def test_nondegen_report(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["check", NONDEGEN, "--out", out]) == 0
        report = json.loads(_read(os.path.join(out, "report.json")))
        assert report["nondegeneracy"]["holds"] is True
        assert report["nondegeneracy"]["sigma_min"] > 1e-6
        assert report["second_order"]["holds"] is True
        assert report["second_order"]["min_value"] > 1e-6
        assert report["residual"]["total"] <= 1e-12
        for key in ("nu_upper_0", "sigma_lower", "sigma_upper", "c_bar",
                    "rho0", "rho1"):
            assert key in report["constants"]

    def test_degen_fails_rank(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["check", DEGEN, "--out", out]) == 0
        report = json.loads(_read(os.path.join(out, "report.json")))
        assert report["nondegeneracy"]["holds"] is False

    def test_saddle_fails_second_order(self, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["check", SADDLE, "--out", out]) == 0
        report = json.loads(_read(os.path.join(out, "report.json")))
        assert report["second_order"]["holds"] is False

    def test_missing_reference(self, tmp_path, capsys):
        data = json.loads(_read(NONDEGEN))
        del data["reference_kkt"]
        stripped = tmp_path / "noref.json"
        stripped.write_text(json.dumps(data))
        code = cli.main(["check", str(stripped),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "reference" in capsys.readouterr().err

    def test_non_kkt_reference_is_one_line_error(self, tmp_path):
        # a scaled multiplier is no subgradient of the nuclear norm at
        # F(x); the package error must surface as exit 1, not a traceback
        data = json.loads(_read(NONDEGEN))
        data["reference_kkt"]["Y"] = [
            [3.0 * v for v in row] for row in data["reference_kkt"]["Y"]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "sdnop", "check", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [
            "error: NotASubgradient: subgradient defect 2.000e+00 "
            "exceeds 1.0e-08"]


def _scaled_instance(tmp_path, profile, scale):
    """Generated (8, 3, 1, 3) seed 7 with the jacobians of F, g and h
    scaled by ``scale`` and f.b reset so that stationarity holds exactly
    at the reference point, the origin."""
    data = instance_to_dict(generate_instance(8, 3, 1, 3, profile, seed=7))
    ref = data["reference_kkt"]
    F_Ai = scale * np.array(data["F"]["Ai"])
    g_Ai = scale * np.array(data["g"]["Ai"])
    h = scale * np.array(data["h"])
    data["F"]["Ai"], data["g"]["Ai"], data["h"] = (
        F_Ai.tolist(), g_Ai.tolist(), h.tolist())
    data["f"]["b"] = (-(np.einsum("ikl,kl->i", F_Ai, ref["Y"])
                        + h[:, :-1].T @ ref["mu"]
                        - np.einsum("ikl,kl->i", g_Ai, ref["Gamma"]))).tolist()
    path = tmp_path / f"{profile}_{scale:g}.json"
    path.write_text(json.dumps(data))
    return str(path)


def _check_quietly(tmp_path, instance):
    """Run ``sdnop check`` in a fresh process: it exits 0, prints one
    line and writes nothing to stderr, not even a warning.  Returns the
    report."""
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "sdnop", "check", instance, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 1
    return json.loads(_read(out / "report.json"))


class TestCheckPastFloatRange:
    # every bound is float64: one past the float range reads null, like
    # the sentinels of a failed nondegeneracy check, even where
    # nondegeneracy holds.  Pinned for nondegen: (c_bar, kappa0,
    # sigma_upper) with None for null
    PINNED = {
        1e-60: (2.523253862950406e+241, 3.5684198342947814e+242,
                1.5884753265160898e+121),
        1e-100: (None, None, 1.5884753265160878e+201),
        1e-160: (None, None, None),
    }

    @pytest.mark.parametrize("scale", sorted(PINNED))
    @pytest.mark.parametrize("profile", ["nondegen", "degen"])
    def test_scaled_jacobians(self, tmp_path, profile, scale):
        report = _check_quietly(tmp_path,
                                _scaled_instance(tmp_path, profile, scale))
        constants = report["constants"]
        assert report["nondegeneracy"]["holds"] is (profile == "nondegen")
        if profile == "nondegen":
            got = tuple(constants[k]
                        for k in ("c_bar", "kappa0", "sigma_upper"))
            want = self.PINNED[scale]
            assert [g is None for g in got] == [w is None for w in want]
            for g, w in zip(got, want):
                if w is not None:
                    assert g == pytest.approx(w, rel=1e-12)
        else:
            assert constants["sigma_upper"] is None

    def test_curvature_model_past_float_range(self, tmp_path):
        # zero multipliers at F(0) = 0 make a KKT point that no jacobian
        # scale moves; at 1e160 the curvature model overflows, so no
        # constant exists while both verdicts still do
        data = instance_to_dict(generate_instance(8, 3, 1, 3, seed=7))
        ref = data["reference_kkt"]
        for key in ("Y", "mu", "Gamma"):
            ref[key] = np.zeros_like(np.array(ref[key])).tolist()
        data["F"]["A0"] = np.zeros_like(np.array(data["F"]["A0"])).tolist()
        data["F"]["Ai"] = (1e160 * np.array(data["F"]["Ai"])).tolist()
        data["f"]["b"] = [0.0] * data["n"]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        report = _check_quietly(tmp_path, str(path))
        assert report["second_order"]["holds"] is True
        assert report["constants"] is None


# ---------------------------------------------------------------------------
# rate-sweep
# ---------------------------------------------------------------------------

class TestRateSweep:
    def test_default_grid_fit(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["rate-sweep", NONDEGEN, "--seed", "7",
                         "--out", out])
        assert code == 0
        header = _read(os.path.join(out, "rate.csv")).split(b"\n")[0]
        assert header == b"c,iterations,median_ratio," \
            b"predicted_ratio_proxy,converged"
        fit = json.loads(_read(os.path.join(out, "fit.json")))
        assert -1.25 <= fit["slope"] <= -0.80
        assert fit["r_squared"] > 0.9
        assert fit["flags"]["assumptions_unverified"] is False
        assert fit["flags"]["excluded"] == []
        assert fit["flags"]["fit_points"] == 4
        assert fit["flags"]["underdetermined"] is False

    def test_single_point_slope_null(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["rate-sweep", NONDEGEN, "--grid", "100",
                         "--seed", "7", "--out", out])
        assert code == 0
        fit = json.loads(_read(os.path.join(out, "fit.json")))
        assert fit["slope"] is None
        assert len(fit["ratios"]) == 1

    def test_summary_names_the_usable_point(self, tmp_path, capsys):
        # c=0.001 hits the outer cap, so c=10 is the only fitted point
        out = str(tmp_path / "run")
        code = cli.main(["rate-sweep", NONDEGEN, "--grid", "0.001,10",
                         "--seed", "7", "--out", out])
        assert code == 0
        assert capsys.readouterr().out.strip() == \
            "single usable grid point c=10, ratio 5.465e-01"
        fit = json.loads(_read(os.path.join(out, "fit.json")))
        assert fit["converged"] == [False, True]
        assert fit["flags"]["excluded"] == [0.001]
        assert fit["flags"]["fit_points"] == 1
        assert fit["flags"]["underdetermined"] is True

    def test_slope_line_counts_usable_points(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = cli.main(["rate-sweep", NONDEGEN, "--grid", "0.001,10,100",
                         "--seed", "7", "--out", out])
        assert code == 0
        assert capsys.readouterr().out.strip().endswith(
            "over 2 usable grid points")
        fit = json.loads(_read(os.path.join(out, "fit.json")))
        assert fit["flags"]["fit_points"] == 2
        assert fit["flags"]["underdetermined"] is True

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        args = ["rate-sweep", NONDEGEN, "--grid", "10,100", "--seed", "7"]
        assert cli.main(args + ["--out", out_a]) == 0
        assert cli.main(args + ["--out", out_b]) == 0
        for name in ("rate.csv", "fit.json"):
            assert _read(os.path.join(out_a, name)) == \
                _read(os.path.join(out_b, name))

    def test_all_points_diverge(self, tmp_path):
        # the saddle reference repels the ALM at every penalty value
        out = str(tmp_path / "run")
        code = cli.main(["rate-sweep", SADDLE, "--grid", "10,100",
                         "--seed", "7", "--out", out])
        assert code == 4
        fit = json.loads(_read(os.path.join(out, "fit.json")))
        assert fit["flags"]["excluded"] == [10.0, 100.0]

    def test_bad_grid(self, tmp_path):
        code = cli.main(["rate-sweep", NONDEGEN, "--grid", "10,zap",
                         "--out", str(tmp_path / "o")])
        assert code == 1

    def test_no_multiplier_coordinates(self, tmp_path, capsys):
        path = str(tmp_path / "bare.json")
        save_instance(generate_instance(4, 0, 0, 0, seed=7), path)
        code = cli.main(["rate-sweep", path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "input error: problem has no multiplier coordinates to "
            "perturb\n")

    def test_missing_reference(self, tmp_path):
        data = json.loads(_read(NONDEGEN))
        del data["reference_kkt"]
        stripped = tmp_path / "noref.json"
        stripped.write_text(json.dumps(data))
        code = cli.main(["rate-sweep", str(stripped),
                         "--out", str(tmp_path / "o")])
        assert code == 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

class TestGenerate:
    def test_pipeline_self_check(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["generate", "--n", "8", "--q", "3", "--m", "1",
                         "--p", "3", "--profile", "nondegen", "--seed", "7",
                         "--out", out])
        assert code == 0
        instance = os.path.join(out, "instance.json")
        assert cli.main(["check", instance, "--out", out]) == 0
        report = json.loads(_read(os.path.join(out, "report.json")))
        assert report["nondegeneracy"]["holds"] is True
        assert report["second_order"]["holds"] is True

    def test_matches_bundled_instance(self, tmp_path):
        out = str(tmp_path / "run")
        cli.main(["generate", "--n", "8", "--q", "3", "--m", "1",
                  "--p", "3", "--seed", "7", "--out", out])
        assert _read(os.path.join(out, "instance.json")) == _read(NONDEGEN)

    def test_infeasible_dims(self, tmp_path, capsys):
        code = cli.main(["generate", "--n", "1", "--q", "2", "--m", "0",
                         "--p", "3", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "full row rank" in capsys.readouterr().err

    def test_same_seed_identical_files(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        args = ["generate", "--n", "6", "--q", "2", "--m", "1", "--p", "2",
                "--seed", "3"]
        assert cli.main(args + ["--out", out_a]) == 0
        assert cli.main(args + ["--out", out_b]) == 0
        assert _read(os.path.join(out_a, "instance.json")) == \
            _read(os.path.join(out_b, "instance.json"))

    def test_saddle_profile_fails_sosc(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["generate", "--n", "6", "--q", "2", "--m", "1",
                         "--p", "2", "--profile", "saddle", "--seed", "5",
                         "--out", out])
        assert code == 0
        assert cli.main(["check", os.path.join(out, "instance.json"),
                         "--out", out]) == 0
        report = json.loads(_read(os.path.join(out, "report.json")))
        assert report["second_order"]["holds"] is False

    # an allocation numpy refuses (--n 200000000 asks for 284 PiB) is an
    # input error, not a traceback.  The refusal is simulated: whether
    # numpy refuses at once or the system overcommits depends on the
    # machine.  A MemoryError that Python raises itself has no message
    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 284. PiB"),
         "input error: Unable to allocate 284. PiB"),
        (MemoryError(), "input error: MemoryError")], ids=["numpy", "bare"])
    def test_refused_allocation_is_input_error(self, tmp_path, capsys,
                                               monkeypatch, exc, line):
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "generate_instance", refuse)
        code = cli.main(["generate", "--n", "200000000", "--q", "0", "--m",
                         "0", "--p", "0", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == line + "\n"

    def test_failed_draw_check_is_input_error(self, tmp_path, capsys,
                                              monkeypatch):
        # the generator checks its one draw and does not redraw
        monkeypatch.setattr(generator, "kkt_residual",
                            lambda *args: SimpleNamespace(total=1e-9))
        code = cli.main(["generate", "--n", "8", "--q", "3", "--m", "1",
                         "--p", "3", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "input error: generated instance fails its first-order check: "
            "residual 1.00e-09 above 1e-12\n")
        assert not os.path.exists(tmp_path / "o" / "instance.json")


# ---------------------------------------------------------------------------
# bad command lines, config values and sweep arguments: exit 1, one line
# ---------------------------------------------------------------------------

_CONFIG = "<config>"

_INPUT_ERRORS = [
    # config values: wrong type, non-finite or a removed key
    pytest.param(["solve", NONDEGEN], {"max_outer": 2.5}, "max_outer must be",
                 id="config-max_outer-float"),
    pytest.param(["solve", NONDEGEN], {"inner": {"max_iter": 2.5}},
                 "max_iter must be", id="config-inner-max_iter-float"),
    pytest.param(["solve", NONDEGEN], {"c0": "10"}, "c0 must be",
                 id="config-c0-string"),
    pytest.param(["solve", NONDEGEN], {"outer_tol": None}, "outer_tol must be",
                 id="config-outer_tol-null"),
    pytest.param(["solve", NONDEGEN], {"penalty_mode": "fixed"},
                 "'penalty_mode'", id="config-removed-key"),
    pytest.param(["solve", NONDEGEN], [1.0, 2.0],
                 "config must be a JSON object", id="config-array"),
    pytest.param(["solve", NONDEGEN], {"inner": 3},
                 "config key 'inner' must be a JSON object",
                 id="config-inner-int"),
    pytest.param(["solve", NONDEGEN, "--tol", "inf"], None,
                 "outer_tol must be", id="tol-inf"),
    pytest.param(["solve", NONDEGEN, "--c0", "inf"], None, "c0 must be",
                 id="c0-inf"),
    # non-finite sweep arguments
    pytest.param(["rate-sweep", NONDEGEN, "--grid", "10,nan"], None,
                 "got nan", id="grid-nan"),
    pytest.param(["rate-sweep", NONDEGEN, "--grid", "inf"], None, "got inf",
                 id="grid-inf"),
    pytest.param(["rate-sweep", NONDEGEN, "--delta", "inf"], None, "delta",
                 id="delta-inf"),
    pytest.param(["rate-sweep", NONDEGEN, "--grid", ","], None,
                 "grid is empty", id="grid-empty"),
    # penalties above 1/eps, which the arithmetic cannot resolve
    pytest.param(["rate-sweep", NONDEGEN, "--grid", "1e300"], None,
                 "got 1e+300", id="grid-above-1/eps"),
    pytest.param(["rate-sweep", NONDEGEN, "--grid", "10,1e16"], None,
                 "got 1e+16", id="grid-1e16"),
    pytest.param(["solve", NONDEGEN], {"c0": 1e300, "c_max": 1e300},
                 "c0 must be at most 1/eps", id="config-c0-above-1/eps"),
    pytest.param(["solve", NONDEGEN, "--c0", "1e300"], None,
                 "c0 must be at most 1/eps", id="c0-above-1/eps"),
    pytest.param(["solve", NONDEGEN], {"c_max": 1e16},
                 "c_max must be at most 1/eps", id="config-c_max-1e16"),
    # usage errors
    pytest.param(["solve"], None, "instance", id="usage-no-instance"),
    pytest.param(["solve", NONDEGEN, "--bogus"], None, "--bogus",
                 id="usage-unknown-flag"),
    pytest.param(["check", NONDEGEN, "--tol", "1e-3"], None, "--tol",
                 id="usage-check-tol"),
    pytest.param(["rate-sweep", NONDEGEN, "--config", _CONFIG], {},
                 "--config", id="usage-sweep-config"),
    pytest.param(["solve", NONDEGEN, "--seed", "3"], None, "--seed",
                 id="usage-solve-seed"),
    pytest.param(["generate", "--q", "3", "--m", "1", "--p", "3"], None,
                 "--n", id="usage-generate-no-n"),
    pytest.param(["rate-sweep", NONDEGEN, "--seed", "-1"], None, "--seed",
                 id="usage-negative-seed"),
    pytest.param(["generate", "--n", "8", "--q", "3", "--m", "1", "--p", "3",
                  "--seed", "x"], None, "--seed", id="usage-seed-not-int"),
]


class TestInputErrors:
    @pytest.mark.parametrize("args, config, fragment", _INPUT_ERRORS)
    def test_one_line_naming_the_cause(self, tmp_path, args, config,
                                       fragment):
        args = list(args) + ["--out", str(tmp_path / "o")]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            if _CONFIG in args:
                args[args.index(_CONFIG)] = str(path)
            else:
                args += ["--config", str(path)]
        proc = subprocess.run([sys.executable, "-m", "sdnop"] + args,
                              capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_INPUT, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("input error: ")
        assert fragment in lines[0], lines
        assert proc.stdout == ""

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["solve", "-h"])
        assert info.value.code == 0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

class TestLogging:
    def test_bad_log_level_warns_and_runs(self, tmp_path):
        env = dict(os.environ, SDNOP_LOG="bogus")
        proc = subprocess.run(
            [sys.executable, "-m", "sdnop", "check", NONDEGEN,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "SDNOP_LOG" in proc.stderr

    def test_info_level_emits_trace(self, tmp_path):
        env = dict(os.environ, SDNOP_LOG="info")
        proc = subprocess.run(
            [sys.executable, "-m", "sdnop", "solve", NONDEGEN,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "outer 1:" in proc.stderr


# ---------------------------------------------------------------------------
# non-finite instance data
# ---------------------------------------------------------------------------

def _mutated(tmp_path, edit):
    data = json.loads(_read(NONDEGEN))
    edit(data)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestNonFiniteData:
    def test_check_rejects_nan_in_f_b(self, tmp_path, capsys):
        def edit(data):
            data["f"]["b"][0] = float("nan")
        path = _mutated(tmp_path, edit)
        code = cli.main(["check", path, "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == \
            "input error: f.b contains non-finite entries"
        assert captured.out == ""

    def test_solve_rejects_inf_in_h_row(self, tmp_path, capsys):
        def edit(data):
            data["h"][0][0] = float("inf")
        path = _mutated(tmp_path, edit)
        code = cli.main(["solve", path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.strip() == \
            "input error: h row 0 contains non-finite entries"

    @pytest.mark.parametrize("field", [
        ("f", "c0"), ("f", "H"), ("F", "A0"), ("F", "Ai"), ("F", "Aij"),
        ("g", "A0"), ("g", "Ai"), ("reference_kkt", "Gamma"),
    ])
    def test_every_field_is_named(self, tmp_path, capsys, field):
        block, key = field

        def edit(data):
            if key == "Aij":  # the bundled maps are affine: add a zero Aij
                n, q = data["n"], data["q"]
                data[block][key] = [[[[0.0] * q] * q] * n] * n
            arr = data[block][key]
            if not isinstance(arr, list):
                data[block][key] = float("nan")
                return
            while isinstance(arr[0], list):
                arr = arr[0]
            arr[0] = float("-inf")
        path = _mutated(tmp_path, edit)
        code = cli.main(["check", path, "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"{block}.{key} contains non-finite entries" in \
            capsys.readouterr().err


class TestMalformedSizes:
    # a size that is negative, not a JSON integer or not the data's, an h
    # that is not a list of rows, and a map coefficient or reference
    # multiplier not of its exact shape are named in one line before
    # anything reads them
    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize("key, value, fragment", [
        ("h", 5, "h must be a list of rows, got 5"),
        ("h", None, "h must be a list of rows, got None"),
        ("n", -1, "n must be a nonnegative integer, got -1"),
        ("q", -1, "q must be a nonnegative integer, got -1"),
        ("m", -2, "m must be a nonnegative integer, got -2"),
        ("p", -1, "p must be a nonnegative integer, got -1"),
        ("n", 8.5, "n must be a nonnegative integer, got 8.5"),
        ("q", "3", "q must be a nonnegative integer, got '3'"),
        ("m", True, "m must be a nonnegative integer, got True"),
        ("p", None, "p must be a nonnegative integer, got None"),
        ("reference_kkt.Y", [0.0] * 9,
         "reference_kkt.Y must have shape (3, 3), got (9,)"),
        ("reference_kkt.mu", [[0.0]],
         "reference_kkt.mu must have shape (1,), got (1, 1)"),
        ("reference_kkt.Gamma", [[0.0] * 9],
         "reference_kkt.Gamma must have shape (3, 3), got (1, 9)"),
        ("m", 2, "declared dims (n, q, m, p) = (8, 3, 2, 3) disagree with "
                 "the data's (8, 3, 1, 3)"),
        ("F.A0", [[0.0] * 3] * 2, "F.A0 must be square, got shape (2, 3)"),
        ("g.Ai", [[[0.0] * 3] * 3] * 7,
         "g.Ai must have shape (8, 3, 3), got (7, 3, 3)"),
    ])
    def test_one_line_naming_the_field(self, tmp_path, capsys, command, key,
                                       value, fragment):
        def edit(data):
            block, _, field = key.rpartition(".")
            (data[block] if block else data)[field] = value
        path = _mutated(tmp_path, edit)
        code = cli.main([command, path, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INPUT
        assert captured.err.strip().splitlines() == [
            f"input error: {fragment}"]
        assert captured.out == ""


# ---------------------------------------------------------------------------
# mutated instances: a documented exit code, never a traceback
# ---------------------------------------------------------------------------

_EXIT_CODES = {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_MAX_OUTER,
               cli.EXIT_INNER, cli.EXIT_SWEEP}
_SITES = (("f", "H", 0, 0), ("f", "b", 0), ("h", 0, 0), ("F", "A0", 0, 0),
          ("g", "Ai", 0, 0, 0), ("reference_kkt", "Y", 0, 0))


def _mutate(data, site, mutation):
    parent = data
    for key in site[:-1]:
        parent = parent[key]
    if mutation == "shape":  # one entry too many in the site's row
        parent.append(parent[0])
    else:
        parent[site[-1]] = mutation


class TestMutatedInstances:
    def test_unresolved_second_order_is_input_error(self, tmp_path):
        # a Hessian entry near the float limit (where x_ref is 0, so the
        # reference stays a KKT point) puts the reduced second-order
        # matrix's smallest eigenvalue inside its round-off: no verdict
        data = json.loads(_read(NONDEGEN))
        data["f"]["H"][0][0] = 1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "sdnop", "check", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_INPUT
        assert "Traceback" not in proc.stderr
        # one line and no overflow warnings before it; the eigenvalue it
        # names is rounding noise, so only the message's start is fixed
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(
            "input error: second-order verdict below round-off: ")
        assert proc.stdout == ""

    def test_overflowing_shifted_matrix_is_named(self, tmp_path):
        # F.A0 near the float limit makes the first Newton step overflow,
        # and the next shifted matrix F(x) + Y/c is no longer finite; the
        # error names that matrix.  Overflow warnings still come before
        # it (ROADMAP item 7), so only the last line is fixed
        data = json.loads(_read(NONDEGEN))
        data["F"]["A0"][0][0] = 1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-W", "ignore::RuntimeWarning", "-m", "sdnop",
             "solve", str(path), "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_INPUT
        assert proc.stderr.strip().splitlines() == [
            "input error: F(x) + Y/c contains non-finite entries"]

    # entries near the float limit still overflow inside numpy on the way
    # to the documented exit code; shown, not raised
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    @pytest.mark.parametrize("profile", ["nondegen", "degen", "saddle"])
    @pytest.mark.parametrize("mutation", [
        float("nan"), float("inf"), 1e308, "shape", "x"],
        ids=["nan", "inf", "huge", "shape", "string"])
    def test_documented_exit_code(self, tmp_path, capsys, profile,
                                  mutation):
        instance = os.path.join(INSTANCES, f"{profile}_small.json")
        out = str(tmp_path / "o")
        for site in _SITES:
            data = json.loads(_read(instance))
            _mutate(data, site, mutation)
            path = tmp_path / "mutated.json"
            path.write_text(json.dumps(data))
            for command in (["solve"], ["check"],
                            ["rate-sweep", "--grid", "10"]):
                code = cli.main(command + [str(path), "--out", out])
                err = capsys.readouterr().err
                case = (site, command[0], code, err)
                assert code in _EXIT_CODES, case
                assert "Traceback" not in err, case
                if code == cli.EXIT_INPUT:
                    last = err.strip().splitlines()[-1]
                    assert last.startswith(("input error: ", "error: ")), case
                if mutation != 1e308:
                    # non-finite, ragged and non-numeric data never load
                    assert code == cli.EXIT_INPUT, case
                elif command[0] == "solve" and site[0] != "reference_kkt":
                    # solve reads the reference block only for the trace's
                    # distances; on the data an entry near the float limit
                    # never reads as converged, not even at a round-off
                    # floor that overflowed
                    assert code != cli.EXIT_OK, case
