"""Command-line interface: exit codes, report text, CSV shapes, determinism."""

import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from hypchoreo import cli, optimizer
from hypchoreo.action import Configuration, action_value
from hypchoreo.cli import main
from hypchoreo.optimizer import Choreography, InfeasibleSeedError, PhaseResult, phase1_bfgs, random_seed
from hypchoreo.solutions import load_bundled, load_solution, save_solution
from hypchoreo.trigpath import TrigPath, pack_vars
from hypchoreo.verify import SolveReport, VerificationThresholds
from test_perfbench import load as load_perfbench


def write_seed(path, coeffs, config):
    save_solution(path, Choreography(config=config, path=TrigPath(coeffs), report=SolveReport()))


def diverging(x0, config):
    """A Phase 2 that fails at its start."""
    x = np.array(x0, dtype=float)
    return PhaseResult(x, action_value(x, config), 1.0, 2, False, failed=True, message="diverged")


def infeasible_start(x0, config):
    """A Phase 2 whose start is infeasible."""
    raise InfeasibleSeedError("starting point is infeasible")


def stalling(x0, config):
    """A Phase 2 that stops at its cap above the floor, without failing."""
    x = np.array(x0, dtype=float)
    return PhaseResult(
        x, action_value(x, config), 1e-3, 10, False,
        message="iteration limit reached above the rounding floor 1.00e-13",
    )


# Stubs for `search`'s Phase 1 stay at module level: the trials run in
# spawned worker processes, which import them by name.
def at_seed(x0, config):
    """A Phase 1 that "converges" at its start."""
    x = np.array(x0, dtype=float)
    return PhaseResult(x, action_value(x, config), 0.0, 0, True)


CALL_LOG = "HYPCHOREO_TEST_CALL_LOG"


def failing_slowly(x0, config):
    """A Phase 1 that logs its call to the file named by $HYPCHOREO_TEST_CALL_LOG,
    then raises after 0.2 s."""
    with open(os.environ[CALL_LOG], "a") as log:
        log.write("call\n")
    time.sleep(0.2)
    raise RuntimeError("phase 1 broke")


def stamping_pid(x0, config):
    """A Phase 1 that logs its call like failing_slowly, then "converges" at
    its start after 0.05 s, with the id of the process that ran it as its
    message.  The sleep lets the pool hand the worker its first trials
    before the calling process has taken them all."""
    with open(os.environ[CALL_LOG], "a") as log:
        log.write("call\n")
    time.sleep(0.05)
    x = np.array(x0, dtype=float)
    return PhaseResult(x, 0.0, 0.0, 0, True, message=str(os.getpid()))


def failing_by_start(x0, config):
    """A Phase 1 that raises after 0.1 s, naming its start by its first entry."""
    time.sleep(0.1)
    raise RuntimeError(f"start {x0[0]:g} broke")


def exiting_in_worker(x0, config):
    """A Phase 1 that logs the id of the worker process it runs in and ends
    that process; it must never run in the calling process."""
    assert multiprocessing.parent_process() is not None, "a trial ran in the calling process"
    with open(os.environ[CALL_LOG], "a") as log:
        log.write(f"{os.getpid()}\n")
    os._exit(1)


def first_fails_others_sleep(x0, config):
    """A Phase 1 that raises after 0.1 s on the start whose first entry is
    0; on any other start it sleeps 0.3 s, then logs the time it ends."""
    if x0[0] == 0.0:
        time.sleep(0.1)
        raise RuntimeError("start 0 broke")
    time.sleep(0.3)
    with open(os.environ[CALL_LOG], "a") as log:
        log.write(f"{time.time()!r}\n")
    x = np.array(x0, dtype=float)
    return PhaseResult(x, 0.0, 0.0, 0, True)


def stamped_bfgs(x0, config):
    """phase1_bfgs, with the id of the process that ran it after its message."""
    result = phase1_bfgs(x0, config)
    return replace(result, message=f"{result.message}|{os.getpid()}")


@pytest.fixture(scope="module")
def circle_solution(tmp_path_factory):
    """A solved two-body disk orbit at R=20, written by the CLI itself."""
    out = tmp_path_factory.mktemp("orbits") / "two_body.json"
    code = main(
        [
            "solve", "--n", "2", "--R", "20", "--K", "4", "--K2", "8",
            "--seed", "1", "--modes", "2", "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestSolve:
    def test_report_and_output_file(self, circle_solution, capsys):
        choreo = load_solution(circle_solution)
        assert choreo.config.n == 2
        assert choreo.config.K == 8
        assert choreo.path.coeffs.size == 17
        assert choreo.report.phase2 is not None
        assert choreo.report.phase2.residual_rel_norm <= 1e-10

    def test_prints_two_phase_table(self, capsys, tmp_path):
        code = main(["solve", "--n", "2", "--R", "inf", "--K", "4", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Phase 1" in out and "Phase 2" in out
        assert "Action" in out
        assert "Relative 2-norm of the residual" in out

    def test_seed_file_input(self, circle_solution, tmp_path, capsys):
        code = main(
            [
                "solve", "--n", "2", "--R", "20", "--K", "6",
                "--seed", str(circle_solution),
            ]
        )
        assert code == 0

    def test_rotating_frame_reaches_bundled_orbit(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main([
            "solve", "--n", "5", "--R", "2.0", "--K", "27", "--omega", "2.31", "--K2", "81",
            "--seed", "bundled:relative_c_seed", "--out", str(out),
        ])
        assert code == 0
        choreo = load_solution(out)
        assert choreo.config.omega == 2.31 and choreo.config.K == 81
        orbit = load_bundled("relative_c")
        assert abs(choreo.report.phase2.action - action_value(pack_vars(orbit.path), orbit.config)) <= 5e-5

    def test_infeasible_seed_file_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "collided.json"
        c = np.zeros(9, dtype=complex)
        c[4] = 0.3  # constant path: permanent collision
        write_seed(bad, c, Configuration(n=2, R=1.5, K=4))
        code = main(["solve", "--n", "2", "--R", "1.5", "--K", "4", "--seed", str(bad)])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_malformed_seed_file_exit_4(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{oops")
        code = main(["solve", "--n", "2", "--R", "1.5", "--K", "4", "--seed", str(bad)])
        assert code == 4

    def test_nan_coefficient_seed_file_exit_4(self, tmp_path, capsys):
        # json.loads reads the NaN, but the file is malformed, not an infeasible seed.
        bad = tmp_path / "nan.json"
        c = np.zeros(9, dtype=complex)
        c[5] = 0.3
        write_seed(bad, c, Configuration(n=2, R=20.0, K=4))
        doc = json.loads(bad.read_text())
        doc["coeffs"][6][0] = math.nan
        bad.write_text(json.dumps(doc))
        code = main(["solve", "--n", "2", "--R", "20", "--K", "4", "--seed", str(bad)])
        assert code == 4
        assert capsys.readouterr().err.startswith("file error: bad coefficient entry: nan ")

    def test_unwritable_output_exit_4(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
        code = main(
            [
                "solve", "--n", "2", "--R", "20", "--K", "4",
                "--seed", "1", "--modes", "2", "--out", str(missing_dir),
            ]
        )
        assert code == 4

    def test_phase2_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        # The report of both phases goes to stdout, the verdict to stderr,
        # and no file is written.
        monkeypatch.setattr(optimizer, "phase2_newton", diverging)
        out_file = tmp_path / "x.json"
        code = main(
            [
                "solve", "--n", "2", "--R", "20", "--K", "4",
                "--seed", "1", "--modes", "2", "--out", str(out_file),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert "Phase 1" in out and "Phase 2" in out
        assert err == "FAILED: phase 2 failed: diverged\n"
        assert not out_file.exists()

    def test_infeasible_newton_start_exit_2(self, tmp_path, capsys, monkeypatch):
        # Phase 1 accepted the seed, so an infeasible Newton start is
        # non-convergence, not an infeasible seed: the Phase-1 report, the
        # verdict, exit 2 and no file.
        monkeypatch.setattr(optimizer, "phase2_newton", infeasible_start)
        out_file = tmp_path / "x.json"
        code = main(
            [
                "solve", "--n", "2", "--R", "20", "--K", "4",
                "--seed", "1", "--modes", "2", "--out", str(out_file),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert "Phase 1" in out and "Phase 2" not in out and "Action" in out
        assert err == "FAILED: phase 2 failed: starting point is infeasible\n"
        assert not out_file.exists()

    def test_unconverged_phase2_exit_2(self, tmp_path, capsys, monkeypatch):
        # A Newton run that stops short without failing is not a solution
        # either: the same report, verdict and exit, and no file.
        monkeypatch.setattr(optimizer, "phase2_newton", stalling)
        out_file = tmp_path / "x.json"
        code = main(
            [
                "solve", "--n", "2", "--R", "20", "--K", "4",
                "--seed", "1", "--modes", "2", "--out", str(out_file),
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert "Phase 1" in out and "Phase 2" in out and "1.00e-03" in out
        assert err == "FAILED: phase 2 did not converge: relative gradient 1.00e-03 after 10 Newton steps\n"
        assert not out_file.exists()


class TestVerify:
    def test_converged_solution_passes(self, circle_solution, capsys):
        code = main(["verify", str(circle_solution)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("PASS")
        assert out.count("ok") == 3

    def test_rough_path_fails_exit_2(self, tmp_path, capsys):
        rough = tmp_path / "rough.json"
        rng = np.random.default_rng(0)
        c = (rng.standard_normal(13) + 1j * rng.standard_normal(13)) * 0.05
        c[7] += 0.5
        write_seed(rough, c, Configuration(n=3, R=1.5, K=6))
        code = main(["verify", str(rough)])
        out = capsys.readouterr().out
        assert code == 2
        assert out.strip().endswith("FAIL")

    def test_off_disk_path_names_the_disk(self, tmp_path, capsys):
        # Both unavailable measures give the action's own verdict.
        off_disk = tmp_path / "off_disk.json"
        write_seed(off_disk, np.array([0, 0, 0, 1.5001, 0], dtype=complex), Configuration(n=2, R=1.5, K=2))
        code = main(["verify", str(off_disk)])
        out = capsys.readouterr().out
        assert code == 2
        assert "note: gradient unavailable: trajectory leaves the disk\n" in out
        assert "note: residual unavailable: trajectory leaves the disk\n" in out

    def test_default_thresholds_are_the_verification_bounds(self):
        args = cli._build_parser().parse_args(["verify", "orbit.json"])
        bounds = (args.decay_threshold, args.gradient_threshold, args.residual_threshold)
        assert bounds == astuple(VerificationThresholds())

    def test_custom_thresholds(self, circle_solution, capsys):
        code = main(["verify", str(circle_solution), "--residual-threshold", "1e-30"])
        assert code == 2

    def test_nan_thresholds_fail_exit_2(self, circle_solution, capsys):
        code = main(
            [
                "verify", str(circle_solution), "--decay-threshold", "nan",
                "--gradient-threshold", "nan", "--residual-threshold", "nan",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert out.strip().endswith("FAIL")
        assert out.count("FAIL") == 4

    def test_missing_file_exit_4(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "absent.json")])
        assert code == 4

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 200000], ids=["not_utf8", "nested_too_deeply"]
    )
    def test_unreadable_file_exit_4(self, tmp_path, capsys, content):
        bad = tmp_path / "unreadable.json"
        bad.write_bytes(content)
        code = main(["verify", str(bad)])
        err = capsys.readouterr().err
        assert code == 4
        assert "file error" in err and "unreadable.json" in err
        assert "Traceback" not in err

    def test_unknown_bundled_name_exit_4(self, capsys):
        code = main(["verify", "bundled:no_such_orbit"])
        assert code == 4

    @pytest.mark.parametrize("valid", [False, True], ids=["invalid", "valid_copy"])
    def test_bundled_name_outside_the_package_exit_4(self, tmp_path, capsys, valid):
        if valid:
            save_solution(tmp_path / "x.json", load_bundled("figure_eight"))
        else:
            (tmp_path / "x.json").write_text("{bad")
        code = main(["verify", "bundled:" + str(tmp_path / "x")])
        assert code == 4
        assert "no bundled solution named" in capsys.readouterr().err


class TestSweep:
    def test_csv_columns_and_slope(self, circle_solution, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--family", str(circle_solution),
                "--R-list", "10,50,20", "--K2", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "family,R,diff,slope"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["two_body"] * 3
        assert [float(row[1]) for row in rows] == [50.0, 20.0, 10.0]
        diffs = [float(row[2]) for row in rows]
        assert all(d > 0 for d in diffs)
        assert diffs[0] < diffs[1] < diffs[2]
        slopes = {row[3] for row in rows}
        assert len(slopes) == 1
        assert float(slopes.pop()) == pytest.approx(-2.0, abs=0.1)

    def test_stdout_default(self, circle_solution, capsys):
        code = main(
            [
                "sweep", "--family", str(circle_solution),
                "--R-list", "40,20", "--K2", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("family,R,diff,slope")
        # two members, no slope fit with fewer than three
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 2
        assert all(row[3] == "" for row in rows)

    @pytest.mark.parametrize(
        "radii",
        [" , ", "a,10", "10,-5", "inf,10", "1e-200,10"],
        ids=["empty", "not_a_number", "negative", "infinite", "curvature_overflows"],
    )
    def test_empty_radius_list_exit_2(self, circle_solution, tmp_path, capsys, radii):
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", str(circle_solution), "--R-list", radii, "--out", str(out)])
        assert exc.value.code == 2
        stdout, err = capsys.readouterr()
        assert "--R-list" in err
        assert stdout == ""
        assert not out.exists()

    def test_repeated_radii_give_one_row_each(self, circle_solution, capsys):
        code = main(["sweep", "--family", str(circle_solution), "--R-list", "10,10,50", "--K2", "8"])
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert code == 0
        assert [float(row[1]) for row in rows] == [50.0, 10.0]

    def test_K2_below_file_bandwidth_exit_2(self, capsys):
        # The whole doubled orbit is cut to --K2 = 3, far below the file's
        # 26; the run is not refused up front, and stderr names the Newton
        # verdict that stopped it.
        code = main(["sweep", "--family", "bundled:figure_eight", "--R-list", "10", "--K2", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(("sweep stopped at R = 10.0: phase 2 ", "FAILED: phase 2 "))
        assert "Traceback" not in err

    def test_flat_solve_failure_exit_2(self, circle_solution, capsys, monkeypatch):
        monkeypatch.setattr(optimizer, "phase2_newton", diverging)
        code = main(["sweep", "--family", str(circle_solution), "--R-list", "40,20", "--K2", "8"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "FAILED: phase 2 failed: diverged\n"

    def test_incomplete_family_exit_2(self, circle_solution, capsys, monkeypatch):
        # The member at R = 20 fails: the rows solved before it are still
        # written, and stderr names where and why the sweep stopped.
        newton = optimizer.phase2_newton

        def failing_at_20(x0, config):
            return (diverging if config.R == 20.0 else newton)(x0, config)

        monkeypatch.setattr(optimizer, "phase2_newton", failing_at_20)
        code = main(["sweep", "--family", str(circle_solution), "--R-list", "40,20,10", "--K2", "8"])
        out, err = capsys.readouterr()
        assert code == 2
        lines = out.strip().splitlines()
        assert lines[0] == "family,R,diff,slope"
        assert [line.split(",")[1] for line in lines[1:]] == ["40.0"]
        assert err == "sweep stopped at R = 20.0: phase 2 failed: diverged\n"

    def test_flat_solve_needs_more_than_ten_newton_steps(self, capsys, monkeypatch):
        # The doubled five_body_c orbit (R = 1.2) is the bundled start
        # farthest from its flat orbit: Newton takes 8 steps there, within
        # its cap of 10, with no Phase 1.
        def no_phase1(*args, **kwargs):
            raise AssertionError("sweep ran Phase 1")

        monkeypatch.setattr(optimizer, "phase1_bfgs", no_phase1)
        code = main(["sweep", "--family", "bundled:five_body_c", "--R-list", "1000,100,10"])
        out, err = capsys.readouterr()
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == [1000.0, 100.0, 10.0]
        assert float(rows[0][3]) == pytest.approx(-2.0, abs=0.1)

    def test_flat_family_has_no_phase1_bandwidth(self, tmp_path, capsys):
        # A flat file is the flat solution itself: no Phase 1 runs, so a
        # --K2 below half the file's bandwidth is not an error.
        flat = tmp_path / "flat.json"
        assert main(["solve", "--n", "2", "--R", "inf", "--K", "4", "--seed", "0", "--out", str(flat)]) == 0
        capsys.readouterr()
        code = main(["sweep", "--family", str(flat), "--R-list", "40,20", "--K2", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "bundled:figure_eight", "--format", "csv", "--samples", "0"],
        ["solve", "--n", "2", "--R", "20", "--K", "10", "--K2", "5", "--seed", "1"],
        ["solve", "--n", "1", "--R", "20", "--K", "4", "--seed", "1"],
        ["solve", "--n", "2", "--R", "20", "--K", "4", "--seed", "1", "--modes", "0"],
        ["search", "--n", "2", "--R", "1.5", "--K", "0"],
        ["sweep", "--family", "bundled:figure_eight", "--R-list", "10", "--K2", "0"],
        # sweep has no --K and takes no abbreviations, so --K is not read as --K2.
        ["sweep", "--family", "bundled:figure_eight", "--R-list", "10", "--K", "4"],
        ["search", "--n", "2", "--R", "1.5", "--K", "4", "--rng", "-1"],
        ["search", "--n", "2", "--R", "1.5", "--K", "4", "--trials", "-3"],
        ["solve", "--n", "2", "--R", "20", "--K", "4", "--seed", "-2"],
        ["solve", "--n", "3", "--R", "1.5", "--K", "5", "--omega", "nan", "--seed", "0"],
        ["solve", "--n", "3", "--R", "1.5", "--K", "5", "--omega", "inf", "--seed", "0"],
        ["search", "--n", "2", "--R", "1.5", "--K", "4", "--omega", "nan"],
        ["search", "--n", "2", "--R", "1.5", "--K", "4", "--omega", "inf"],
        ["solve", "--n", "2", "--R", "1e-300", "--K", "2", "--seed", "0"],
        ["solve", "--n", "2", "--R", "0", "--K", "2", "--seed", "0"],
        ["solve", "--n", "2", "--R", "-1", "--K", "2", "--seed", "0"],
    ],
    ids=[
        "samples_0", "K2_below_K", "n_1", "modes_0", "search_K_0", "sweep_K2_0", "sweep_has_no_K",
        "search_rng_negative", "search_trials_negative", "seed_negative",
        "solve_omega_nan", "solve_omega_inf", "search_omega_nan", "search_omega_inf",
        "R_curvature_overflows", "R_zero", "R_negative",
    ],
)
def test_bad_integer_argument_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and "Traceback" not in err


class TestExport:
    def test_samples_csv(self, circle_solution, capsys):
        code = main(["export", str(circle_solution), "--format", "csv", "--samples", "64"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "re_z0", "im_z0", "re_z1", "im_z1", "x1", "x2", "x3"]
        assert len(lines) == 65
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        # exported lift must land on the hyperboloid sheet
        R = 20.0
        x1, x2, x3 = first[5], first[6], first[7]
        assert (x3 * x3 - x1 * x1 - x2 * x2) == pytest.approx(R ** 2, rel=1e-10)

    def test_planar_csv_has_no_lift(self, tmp_path, capsys):
        flat = tmp_path / "flat.json"
        c = np.zeros(9, dtype=complex)
        c[5] = 0.63
        write_seed(flat, c, Configuration(n=2, R=math.inf, K=4))
        code = main(["export", str(flat), "--format", "csv", "--samples", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "t,re_z0,im_z0,re_z1,im_z1"

    def test_coefficient_magnitudes(self, circle_solution, capsys):
        code = main(["export", str(circle_solution), "--format", "coeffs"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,abs_c"
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == list(range(-8, 9))
        mags = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(m >= 0.0 for m in mags)

    def test_output_file(self, circle_solution, tmp_path):
        out = tmp_path / "orbit.csv"
        code = main(["export", str(circle_solution), "--format", "coeffs", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("k,abs_c")

    def test_off_disk_orbit_is_a_file_error(self, tmp_path, capsys):
        # A file may hold an orbit off the disk (verify reports it as FAIL);
        # its hyperboloid lift is then undefined.
        eight = load_bundled("figure_eight")
        off = tmp_path / "off.json"
        write_seed(off, 3.0 * eight.path.coeffs, eight.config)
        out = tmp_path / "orbit.csv"
        code = main(["export", str(off), "--format", "csv", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("file error: |z| = ")
        assert err.endswith(" too close to the boundary |z| = 1.5\n")
        assert not out.exists()


class TestSearch:
    def test_finds_circle_and_is_deterministic(self, tmp_path, capsys):
        args = ["search", "--n", "2", "--R", "1.5", "--K", "4", "--K2", "8",
                "--trials", "3", "--modes", "2", "--rng", "5"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(dir_a)]) == 0
        capsys.readouterr()
        assert main(args + ["--out-dir", str(dir_b)]) == 0
        files_a = sorted(p.name for p in dir_a.iterdir())
        files_b = sorted(p.name for p in dir_b.iterdir())
        assert files_a == files_b
        assert files_a[0] == "search_000.json"
        for name in files_a:
            doc_a = json.loads((dir_a / name).read_text())
            doc_b = json.loads((dir_b / name).read_text())
            for doc in (doc_a, doc_b):
                for phase in doc["diagnostics"].values():
                    phase.pop("wall_time_seconds")
            assert doc_a == doc_b
            choreo = load_solution(dir_a / name)
            assert choreo.report.phase2.residual_rel_norm <= 1e-8

    def test_distinct_actions_only(self, tmp_path, capsys):
        # Every two-body trial lands on the same circular orbit, so the
        # search keeps exactly one representative.
        out_dir = tmp_path / "found"
        code = main(
            ["search", "--n", "2", "--R", "1.5", "--K", "4", "--K2", "8",
             "--trials", "4", "--modes", "2", "--rng", "0", "--out-dir", str(out_dir)]
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["search_000.json"]

    @pytest.mark.parametrize("reason", ["infeasible_seed", "phase1", "phase2"])
    def test_dropped_trials_named_on_stderr(self, reason, tmp_path, capsys, monkeypatch):
        # Every trial is dropped for one reason, and each dropped trial gets
        # one stderr line with its number and that reason; stdout stays empty.
        if reason == "infeasible_seed":
            def no_seed(*args, **kwargs):
                raise InfeasibleSeedError("no feasible random seed found in 100 draws")

            monkeypatch.setattr(cli, "random_seed", no_seed)
            expected = "infeasible seed: no feasible random seed found in 100 draws"
        elif reason == "phase1":
            # One usable CPU: spawned workers would import the unpatched cap.
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            monkeypatch.setattr(optimizer, "_BFGS_MAX_ITERATIONS", 1)
            expected = "phase 1 iteration limit 1 reached at relative gradient "
        else:
            # Phase 1 "converges" at each (distinct) seed, and Phase 2 fails.
            monkeypatch.setattr(cli, "phase1_bfgs", at_seed)
            monkeypatch.setattr(optimizer, "phase2_newton", diverging)
            expected = "phase 2 failed: diverged"
        code = main(
            ["search", "--n", "2", "--R", "1.5", "--K", "4", "--K2", "8",
             "--trials", "3", "--modes", "2", "--rng", "0", "--out-dir", str(tmp_path / "found")]
        )
        assert code == 2  # no converged solutions
        out, err = capsys.readouterr()
        assert out == ""
        dropped = [line.split("  dropped: ") for line in err.splitlines() if "dropped" in line]
        assert all(why.startswith(expected) for _, why in dropped)
        # Phase 2 takes the trials in the order of their Phase-1 values.
        assert sorted(trial for trial, _ in dropped) == ["trial   0", "trial   1", "trial   2"]

    def test_unconverged_trials_kept_and_named(self, tmp_path, capsys, monkeypatch):
        # search alone keeps a Newton run that stopped short (the benchmark
        # pins one, trial 6 at --rng 0), and names each one it writes on
        # stderr.  The benchmark's check must read such a file as a failure
        # the program reported, not as a wrong output.
        monkeypatch.setattr(cli, "phase1_bfgs", at_seed)
        monkeypatch.setattr(optimizer, "phase2_newton", stalling)
        out_dir = tmp_path / "found"
        code = main(
            ["search", "--n", "2", "--R", "1.5", "--K", "4", "--K2", "8",
             "--trials", "3", "--modes", "2", "--rng", "0", "--out-dir", str(out_dir)]
        )
        out, err = capsys.readouterr()
        assert code == 0
        files = sorted(out_dir.iterdir())
        assert len(files) == 3 == len(out.splitlines())
        for path in files:
            assert json.loads(path.read_text())["diagnostics"]["phase2"]["converged"] is False
        kept = [line for line in err.splitlines() if "  kept unconverged: " in line]
        verdict = "phase 2 did not converge: relative gradient 1.00e-03 after 10 Newton steps"
        assert sorted(line.split("  kept unconverged: ")[0] for line in kept) == ["trial   0", "trial   1", "trial   2"]
        assert all(line.endswith(verdict) for line in kept)

        workloads = load_perfbench("workloads", monkeypatch)
        outcome = workloads.Outcome()
        assert not workloads.check_orbit(outcome, files[0].name, load_solution(files[0]), None, workloads.RESIDUAL_BOUND["five_body"])
        assert outcome.failure.startswith(f"{files[0].name}: its report says phase 2 did not converge")
        assert outcome.errors == []

    def test_pooled_phase1_matches_in_process(self):
        # Phase 1 in a worker process gives the in-process result bit for bit.
        config = Configuration(n=3, R=1.5, K=6)
        starts = [pack_vars(random_seed(config, modes=3, rng_seed=seed)) for seed in range(3)]
        pooled = cli._phase1_trials(starts, config)
        assert len(pooled) == len(starts)
        for x0, result in zip(starts, pooled):
            local = phase1_bfgs(x0, config)
            assert result.seconds > 0.0
            assert result.x.dtype == local.x.dtype and result.x.tobytes() == local.x.tobytes()
            for field in fields(PhaseResult):
                if field.name not in ("x", "seconds"):
                    assert getattr(result, field.name) == getattr(local, field.name), field.name

    def test_pooled_phase1_matches_in_process_at_benchmark_size(self):
        # search's own problem (n = 5, K = 27): the workers take node values
        # and adjoints from the dense basis with the BLAS threads they
        # inherit, and still give the in-process bits.  Trial 6 converges
        # after a long plateau; trial 19 stalls.
        config = Configuration(n=5, R=1.2, K=27)
        starts = [pack_vars(random_seed(config, modes=5, rng_seed=seed)) for seed in (6, 19)]
        pooled = cli._phase1_trials(starts, config)
        for x0, result in zip(starts, pooled):
            local = phase1_bfgs(x0, config)
            assert result.x.tobytes() == local.x.tobytes()
            for field in fields(PhaseResult):
                if field.name not in ("x", "seconds"):
                    assert getattr(result, field.name) == getattr(local, field.name), field.name

    def test_trial_exception_reaches_caller(self, tmp_path, monkeypatch):
        # A trial that raises stops the search: its exception leaves main,
        # and the trials not yet started are cancelled, not run.
        log = tmp_path / "calls"
        monkeypatch.setenv(CALL_LOG, str(log))
        monkeypatch.setattr(cli, "phase1_bfgs", failing_slowly)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one worker
        raised = []

        def search():
            try:
                main(["search", "--n", "2", "--R", "1.5", "--K", "4", "--trials", "20",
                      "--modes", "2", "--out-dir", str(tmp_path / "found")])
            except RuntimeError as exc:
                raised.append(exc)

        thread = threading.Thread(target=search, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert [str(exc) for exc in raised] == ["phase 1 broke"]
        assert len(log.read_text().splitlines()) < 20

    def test_one_cpu_spawns_no_process(self, monkeypatch):
        # With one usable CPU every trial runs in this process, bit for bit
        # as phase1_bfgs does.
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        config = Configuration(n=3, R=1.5, K=6)
        starts = [pack_vars(random_seed(config, modes=3, rng_seed=seed)) for seed in range(3)]
        results = cli._phase1_trials(starts, config)
        assert len(results) == len(starts)
        for x0, result in zip(starts, results):
            local = phase1_bfgs(x0, config)
            assert result.x.dtype == local.x.dtype and result.x.tobytes() == local.x.tobytes()
            for field in fields(PhaseResult):
                if field.name not in ("x", "seconds"):
                    assert getattr(result, field.name) == getattr(local, field.name), field.name

    def test_workers_alone_run_trials_in_order(self, tmp_path, monkeypatch):
        # With two usable CPUs every trial runs in a worker, none in this
        # process; each trial runs once, and the results come in trial order.
        log = tmp_path / "calls"
        monkeypatch.setenv(CALL_LOG, str(log))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "phase1_bfgs", stamping_pid)
        starts = [np.full(3, float(trial)) for trial in range(8)]
        results = cli._phase1_trials(starts, Configuration(n=2, R=1.5, K=4))
        assert [result.x.tolist() for result in results] == [x0.tolist() for x0 in starts]
        pids = {int(result.message) for result in results}
        assert os.getpid() not in pids and 1 <= len(pids) <= 2
        assert len(log.read_text().splitlines()) == len(starts)

    def test_trial_exception_reaches_caller_on_two_cpus(self, tmp_path, monkeypatch):
        # A trial that raises in a worker stops the search: its exception
        # leaves main, and the queued trials are cancelled, not run.
        log = tmp_path / "calls"
        monkeypatch.setenv(CALL_LOG, str(log))
        monkeypatch.setattr(cli, "phase1_bfgs", failing_slowly)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two workers
        raised = []

        def search():
            try:
                main(["search", "--n", "2", "--R", "1.5", "--K", "4", "--trials", "20",
                      "--modes", "2", "--out-dir", str(tmp_path / "found")])
            except RuntimeError as exc:
                raised.append(exc)

        thread = threading.Thread(target=search, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert [str(exc) for exc in raised] == ["phase 1 broke"]
        assert len(log.read_text().splitlines()) < 20

    def test_output_same_on_one_and_two_cpus(self, tmp_path, capsys, monkeypatch):
        # Where each trial's Phase 1 runs does not change stdout, stderr or
        # the files (but for their wall times).
        outputs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            run_dir = tmp_path / str(len(cpus))
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            code = main(["search", "--n", "2", "--R", "1.5", "--K", "4", "--K2", "8", "--trials", "3",
                         "--modes", "2", "--rng", "5", "--out-dir", "found"])
            out, err = capsys.readouterr()
            docs = {}
            for path in sorted((run_dir / "found").iterdir()):
                docs[path.name] = json.loads(path.read_text())
                for phase in docs[path.name]["diagnostics"].values():
                    phase.pop("wall_time_seconds")
            outputs.append((code, out, err, docs))
        assert outputs[0] == outputs[1]
        code, out, err, docs = outputs[0]
        assert code == 0 and "dropped" in err and list(docs) == ["search_000.json"]

    def test_kept_worker_serves_later_calls(self, monkeypatch):
        # The workers spawned by the first call run the trials of the next
        # one, and their results are those of an in-process run bit for bit.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "phase1_bfgs", stamped_bfgs)
        config = Configuration(n=3, R=1.5, K=6)
        starts = [pack_vars(random_seed(config, modes=3, rng_seed=seed)) for seed in range(4)]
        calls = [cli._phase1_trials(starts, config) for _ in range(2)]
        pids = [{int(result.message.rsplit("|", 1)[1]) for result in results} for results in calls]
        assert pids[0] == pids[1] and os.getpid() not in pids[0] and 1 <= len(pids[0]) <= 2
        for results in calls:
            for x0, result in zip(starts, results):
                local = phase1_bfgs(x0, config)
                assert result.x.dtype == local.x.dtype and result.x.tobytes() == local.x.tobytes()
                assert result.message.rsplit("|", 1)[0] == local.message
                for field in fields(PhaseResult):
                    if field.name not in ("x", "seconds", "message"):
                        assert getattr(result, field.name) == getattr(local, field.name), field.name

    def test_dead_worker_replaced(self, tmp_path, monkeypatch):
        # A worker that dies fails its call with BrokenProcessPool; the next
        # call spawns a new worker and succeeds.
        log = tmp_path / "calls"
        monkeypatch.setenv(CALL_LOG, str(log))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        starts = [np.full(3, float(trial)) for trial in range(8)]
        config = Configuration(n=2, R=1.5, K=4)
        monkeypatch.setattr(cli, "phase1_bfgs", exiting_in_worker)
        with pytest.raises(BrokenProcessPool):
            cli._phase1_trials(starts, config)
        dead = {int(line) for line in log.read_text().splitlines() if line != "call"}
        assert 1 <= len(dead) <= 2
        monkeypatch.setattr(cli, "phase1_bfgs", stamping_pid)
        results = cli._phase1_trials(starts, config)
        assert [result.x.tolist() for result in results] == [x0.tolist() for x0 in starts]
        pids = {int(result.message) for result in results}
        assert os.getpid() not in pids and 1 <= len(pids) <= 2 and not pids & dead

    def test_idle_worker_death_spares_next_call(self, tmp_path, monkeypatch):
        # Workers killed while the pool is idle leave it broken; the next
        # call submits once more on a new pool and succeeds.
        log = tmp_path / "calls"
        monkeypatch.setenv(CALL_LOG, str(log))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "phase1_bfgs", stamping_pid)
        starts = [np.full(3, float(trial)) for trial in range(8)]
        config = Configuration(n=2, R=1.5, K=4)
        killed = {int(result.message) for result in cli._phase1_trials(starts, config)}
        for pid in killed:
            os.kill(pid, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):  # the pool has seen the deaths
            cli._pool.submit(os.getpid).result(timeout=60)
        results = cli._phase1_trials(starts, config)
        assert [result.x.tolist() for result in results] == [x0.tolist() for x0 in starts]
        pids = {int(result.message) for result in results}
        assert os.getpid() not in pids and not pids & killed

    def test_pool_replaced_when_cpus_change(self, tmp_path, monkeypatch):
        # A call on another number of usable CPUs shuts the kept worker
        # down and spawns new ones.
        log = tmp_path / "calls"
        monkeypatch.setenv(CALL_LOG, str(log))
        monkeypatch.setattr(cli, "phase1_bfgs", stamping_pid)
        starts = [np.full(3, float(trial)) for trial in range(8)]
        workers = []
        for cpus in ({0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            results = cli._phase1_trials(starts, Configuration(n=2, R=1.5, K=4))
            workers.append({int(result.message) for result in results} - {os.getpid()})
        assert workers[0] and workers[1] and not workers[0] & workers[1]
        for pid in workers[0]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_second_search_same_output_as_one_cpu(self, tmp_path, capsys, monkeypatch):
        # Two searches in one process on two CPUs, the second on the kept
        # worker, print and write what a one-CPU search does (but for wall
        # times).
        outputs = []
        for run, cpus in enumerate(({0}, {0, 1}, {0, 1})):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out_dir = tmp_path / str(run)
            code = main(["search", "--n", "2", "--R", "1.5", "--K", "4", "--K2", "8", "--trials", "3",
                         "--modes", "2", "--rng", "5", "--out-dir", str(out_dir)])
            out, err = capsys.readouterr()
            docs = {}
            for path in sorted(out_dir.iterdir()):
                docs[path.name] = json.loads(path.read_text())
                for phase in docs[path.name]["diagnostics"].values():
                    phase.pop("wall_time_seconds")
            outputs.append((code, out.replace(str(out_dir), "<out>"), err, docs))
        assert outputs[0] == outputs[1] == outputs[2]
        code, out, err, docs = outputs[0]
        assert code == 0 and "dropped" in err and list(docs) == ["search_000.json"]

    def test_no_worker_outlives_the_process(self, tmp_path):
        # A process that runs two searches and exits leaves no worker alive:
        # the kept pool is joined at interpreter exit.
        probe = (
            "import multiprocessing, os, sys\n"
            "from hypchoreo import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "for run in range(2):\n"
            "    args = ['search', '--n', '2', '--R', '1.5', '--K', '4', '--K2', '8', '--trials', '3',\n"
            "            '--modes', '2', '--rng', '5', '--out-dir', sys.argv[1] + str(run)]\n"
            "    assert cli.main(args) == 0\n"
            "print(*[child.pid for child in multiprocessing.active_children()])\n"
        )
        where = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (where, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "found")],
                             capture_output=True, text=True, check=True, env=env, timeout=120)
        pids = [int(word) for word in out.stdout.splitlines()[-1].split()]
        assert 1 <= len(pids) <= 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_lowest_failed_trial_raised(self, monkeypatch):
        # Two workers fail trials 0 and 1 at about the same time; the call
        # waits for trial 0 and raises its exception.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "phase1_bfgs", failing_by_start)
        starts = [np.full(3, float(trial)) for trial in range(8)]
        with pytest.raises(RuntimeError, match="^start 0 broke$"):
            cli._phase1_trials(starts, Configuration(n=2, R=1.5, K=4))

    def test_failed_call_waits_for_held_trials(self, tmp_path, monkeypatch):
        # Trial 0 fails in one of two workers while the others run; the
        # call raises only once every trial a worker already held has ended,
        # so none runs on into the next call.
        log = tmp_path / "calls"
        monkeypatch.setenv(CALL_LOG, str(log))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "phase1_bfgs", first_fails_others_sleep)
        starts = [np.full(3, float(trial)) for trial in range(8)]
        with pytest.raises(RuntimeError, match="^start 0 broke$"):
            cli._phase1_trials(starts, Configuration(n=2, R=1.5, K=4))
        raised = time.time()
        time.sleep(1.0)  # long enough for any trial still running to log its end
        ends = [float(line) for line in log.read_text().splitlines()]
        assert 1 <= len(ends) < len(starts) - 1
        assert all(end < raised for end in ends)

    def test_interrupt_leaves_at_once(self, tmp_path, monkeypatch):
        # An interrupt while the trials run cancels those not yet handed to
        # a worker and leaves without waiting for the rest.
        log = tmp_path / "calls"
        monkeypatch.setenv(CALL_LOG, str(log))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(cli, "phase1_bfgs", first_fails_others_sleep)
        waits = []

        def interrupted(futures, return_when=None):
            waits.append(return_when)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "wait", interrupted)
        starts = [np.full(3, float(trial)) for trial in range(1, 9)]
        with pytest.raises(KeyboardInterrupt):
            cli._phase1_trials(starts, Configuration(n=2, R=1.5, K=4))
        assert len(waits) == 1

    def test_claims_hold_under_fast_thread_switching(self, tmp_path, monkeypatch):
        # Three workers, more than this machine may have cores, take trials
        # while threads switch every microsecond: each trial runs once, and
        # the results come in trial order.
        log = tmp_path / "calls"
        monkeypatch.setenv(CALL_LOG, str(log))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(cli, "phase1_bfgs", stamping_pid)
        starts = [np.full(3, float(trial)) for trial in range(24)]
        results = []

        def trials():
            results.extend(cli._phase1_trials(starts, Configuration(n=2, R=1.5, K=4)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=trials, daemon=True)
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert [result.x.tolist() for result in results] == [x0.tolist() for x0 in starts]
        assert len(log.read_text().splitlines()) == len(starts)

    def test_search_without_sched_getaffinity(self, tmp_path, capsys, monkeypatch):
        # Where os has no sched_getaffinity (macOS, Windows), search counts
        # CPUs by os.cpu_count.
        monkeypatch.delattr(os, "sched_getaffinity")
        out_dir = tmp_path / "found"
        code = main(["search", "--n", "2", "--R", "1.5", "--K", "4", "--K2", "8", "--trials", "3",
                     "--modes", "2", "--rng", "5", "--out-dir", str(out_dir)])
        assert code == 0
        assert [p.name for p in out_dir.iterdir()] == ["search_000.json"]
