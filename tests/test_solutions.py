"""Solution files: bitwise round trips, malformed input, bundled orbits."""

import json
import math
import os

import numpy as np
import pytest

from hypchoreo import solutions
from hypchoreo.action import Configuration
from hypchoreo.optimizer import Choreography
from hypchoreo.solutions import (
    MalformedSolutionError,
    bundled_names,
    load_bundled,
    load_solution,
    save_solution,
    solution_from_dict,
    solution_to_dict,
)
from hypchoreo.trigpath import TrigPath
from hypchoreo.verify import PhaseRecord, SolveReport


def sample_choreo(planar=False, with_report=True):
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(7) / 7 + 1j * rng.standard_normal(7) / 9
    coeffs[4] += 0.1 + 1.0 / 3.0
    config = Configuration(n=3, R=math.inf if planar else 1.5, K=3, omega=0.25)
    report = SolveReport()
    if with_report:
        report = SolveReport(
            phase1=PhaseRecord(27.84, 7, 0.77, 87, 8.08e-08, 4.75e-10, 9.38e-07),
            phase2=PhaseRecord(27.84, 13, 0.64, 2, 3.87e-15, 1.03e-16, 3.54e-13, True),
        )
    return Choreography(config=config, path=TrigPath(coeffs), report=report)


class TestRoundTrip:
    def test_bitwise_coeffs(self, tmp_path):
        choreo = sample_choreo()
        target = tmp_path / "orbit.json"
        save_solution(target, choreo)
        back = load_solution(target)
        assert np.array_equal(back.path.coeffs, choreo.path.coeffs)

    def test_config_and_report_survive(self, tmp_path):
        choreo = sample_choreo()
        target = tmp_path / "orbit.json"
        save_solution(target, choreo)
        back = load_solution(target)
        assert back.config == choreo.config
        assert back.report.phase1 == choreo.report.phase1
        assert back.report.phase2 == choreo.report.phase2

    def test_planar_radius_spelled_out(self, tmp_path):
        choreo = sample_choreo(planar=True)
        target = tmp_path / "flat.json"
        save_solution(target, choreo)
        raw = json.loads(target.read_text())
        assert raw["config"]["R"] == "planar"
        back = load_solution(target)
        assert back.config.is_planar

    def test_seed_without_diagnostics(self, tmp_path):
        choreo = sample_choreo(with_report=False)
        target = tmp_path / "seed.json"
        save_solution(target, choreo)
        raw = json.loads(target.read_text())
        assert raw["diagnostics"] is None
        back = load_solution(target)
        assert back.report.phase1 is None and back.report.phase2 is None

    def test_dict_round_trip(self):
        choreo = sample_choreo()
        back = solution_from_dict(solution_to_dict(choreo))
        assert np.array_equal(back.path.coeffs, choreo.path.coeffs)
        assert back.config == choreo.config

    def test_overwrite_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "orbit.json"
        save_solution(target, sample_choreo())
        save_solution(target, sample_choreo(planar=True))
        assert load_solution(target).config.is_planar
        assert [p.name for p in tmp_path.iterdir()] == ["orbit.json"]


    def test_failed_write_removes_its_temporary_file(self, tmp_path, monkeypatch):
        # The rename fails: the error propagates, the temporary file is
        # removed, and the file already at the target is left as it was.
        target = tmp_path / "orbit.json"
        save_solution(target, sample_choreo())
        before = target.read_bytes()

        def failing_replace(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(solutions.os, "replace", failing_replace)
        with pytest.raises(OSError, match="no space left on device"):
            save_solution(target, sample_choreo(planar=True))
        assert [p.name for p in tmp_path.iterdir()] == ["orbit.json"]
        assert target.read_bytes() == before


def valid_document():
    return solution_to_dict(sample_choreo())


class TestMalformed:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(format_version=2),
            lambda d: d.update(format_version="1"),
            lambda d: d.pop("format_version"),
            lambda d: d.pop("config"),
            lambda d: d.pop("coeffs"),
            lambda d: d["config"].update(n=1),
            lambda d: d["config"].update(R="nonsense"),
            lambda d: d["config"].pop("K"),
            lambda d: d.update(coeffs=d["coeffs"][:-1]),
            lambda d: d["coeffs"].__setitem__(0, ["x", 0.0]),
            lambda d: d["coeffs"].__setitem__(0, [1.0, 2.0, 3.0]),
            lambda d: d.update(diagnostics="fast"),
            lambda d: d["diagnostics"].update(phase1={"action": 1.0}),
            lambda d: d["diagnostics"].update(phase2=[1, 2, 3]),
            # int() would truncate these to a valid n = 3, K = 3, and K = 1.
            lambda d: d["config"].update(n=3.9),
            lambda d: d["config"].update(K=3.7),
            lambda d: d.update(config={**d["config"], "K": True}, coeffs=d["coeffs"][2:5]),
            # json.loads reads NaN and Infinity, and float() would take "1.5" and true.
            lambda d: d["coeffs"].__setitem__(3, [math.nan, 0.0]),
            lambda d: d["coeffs"].__setitem__(3, [0.1, -math.inf]),
            lambda d: d["coeffs"].__setitem__(3, ["1.5", 0.0]),
            lambda d: d["coeffs"].__setitem__(3, [True, 0.0]),
            # The same for the config: "R" is "planar" or a finite number,
            # so Infinity does not spell a flat orbit.
            lambda d: d["config"].update(R="1.5"),
            lambda d: d["config"].update(R=True),
            lambda d: d["config"].update(R=math.inf),
            lambda d: d["config"].update(omega="0.5"),
            lambda d: d["config"].update(omega=True),
            # Phase-record fields take their own types: finite numbers, int
            # counts, a bool flag ("false" would be truthy).
            lambda d: d["diagnostics"]["phase1"].update(iterations="many"),
            lambda d: d["diagnostics"]["phase1"].update(iterations=87.0),
            lambda d: d["diagnostics"]["phase1"].update(coefficient_count=True),
            lambda d: d["diagnostics"]["phase2"].update(converged="false"),
            lambda d: d["diagnostics"]["phase2"].update(converged=1),
            lambda d: d["diagnostics"]["phase2"].update(action="27.84"),
            lambda d: d["diagnostics"]["phase2"].update(residual_rel_norm=math.nan),
        ],
    )
    def test_rejected(self, mutate):
        doc = valid_document()
        mutate(doc)
        with pytest.raises(MalformedSolutionError):
            solution_from_dict(doc)

    def test_non_object_document(self):
        with pytest.raises(MalformedSolutionError):
            solution_from_dict([1, 2, 3])

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(MalformedSolutionError):
            load_solution(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedSolutionError):
            load_solution(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 200000], ids=["not_utf8", "nested_too_deeply"]
    )
    def test_unreadable_text_file(self, tmp_path, content):
        bad = tmp_path / "unreadable.json"
        bad.write_bytes(content)
        with pytest.raises(MalformedSolutionError, match="unreadable.json"):
            load_solution(bad)

    def test_omega_defaults_to_zero(self):
        doc = valid_document()
        del doc["config"]["omega"]
        assert solution_from_dict(doc).config.omega == 0.0

    def test_nan_omega_file_rejected(self, tmp_path):
        doc = valid_document()
        doc["config"]["omega"] = math.nan
        target = tmp_path / "nan_omega.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(MalformedSolutionError, match="omega"):
            load_solution(target)


class TestPhaseRecordFields:
    def test_converged_is_optional(self):
        doc = valid_document()
        del doc["diagnostics"]["phase1"]["converged"]
        assert solution_from_dict(doc).report.phase1.converged is True

    def test_action_is_required(self):
        doc = valid_document()
        del doc["diagnostics"]["phase2"]["action"]
        with pytest.raises(MalformedSolutionError, match="action"):
            solution_from_dict(doc)

    def test_unknown_key_ignored(self):
        doc = valid_document()
        doc["diagnostics"]["phase2"]["note"] = "extra"
        assert solution_from_dict(doc).report.phase2 == sample_choreo().report.phase2


class TestBundled:
    def test_names_present(self):
        names = bundled_names()
        assert names == sorted(names)
        assert "figure_eight" in names
        assert "figure_eight_seed" in names

    def test_every_bundled_orbit_loads(self):
        for name in bundled_names():
            choreo = load_bundled(name)
            assert choreo.path.coeffs.size == 2 * choreo.config.K + 1

    def test_unknown_name(self):
        with pytest.raises(MalformedSolutionError) as err:
            load_bundled("no_such_orbit")
        assert "figure_eight" in str(err.value)

    @pytest.mark.parametrize("valid", [False, True], ids=["invalid", "valid_copy"])
    def test_name_outside_the_package_rejected(self, tmp_path, valid):
        # A valid copy of a bundled orbit is refused as well as a broken file:
        # only the package's own names are read.
        data = solutions._data_root()
        (tmp_path / "x.json").write_text((data / "figure_eight.json").read_text() if valid else "{bad")
        for name in (str(tmp_path / "x"), os.path.relpath(tmp_path / "x", data)):
            with pytest.raises(MalformedSolutionError, match="no bundled solution named"):
                load_bundled(name)
