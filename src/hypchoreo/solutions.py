"""Reading and writing orbit files, and access to the bundled solutions.

A solution file is JSON with four top-level keys:

    format_version   integer, currently 1
    config           {"n": int, "R": float or "planar", "omega": float, "K": int}
    coeffs           list of [re, im] pairs of finite numbers ordered k = -K..K
    diagnostics      {"phase1": record or null, "phase2": record or null} or null

Floats rely on the shortest-round-trip text form, so coefficients written
and read back compare bitwise equal.  R = infinity is spelled "planar" in
files to avoid non-portable float text.  Writes go to a temporary file in
the target directory followed by an atomic rename, so a crashed or failed
command never leaves a truncated file behind.

The package ships converged orbits and the seeds that produce them under
hypchoreo/data; load_bundled retrieves them by name.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import MISSING, asdict, fields
from importlib import resources
from pathlib import Path

from .action import Configuration
from .optimizer import Choreography
from .trigpath import TrigPath
from .verify import PhaseRecord, SolveReport

__all__ = [
    "FORMAT_VERSION",
    "MalformedSolutionError",
    "solution_to_dict",
    "solution_from_dict",
    "save_solution",
    "load_solution",
    "bundled_names",
    "load_bundled",
]

FORMAT_VERSION = 1

# PhaseRecord's field names, each mapped to whether a file must give it.
_RECORD_FIELDS = {f.name: f.default is MISSING for f in fields(PhaseRecord)}


class MalformedSolutionError(ValueError):
    """Solution file content is not a valid format-1 document."""


def solution_to_dict(choreo: Choreography) -> dict:
    """JSON-ready dictionary for one solved (or seed) orbit."""
    config = choreo.config
    report = choreo.report
    diagnostics = None
    if report is not None and (report.phase1 is not None or report.phase2 is not None):
        diagnostics = {
            "phase1": asdict(report.phase1) if report.phase1 is not None else None,
            "phase2": asdict(report.phase2) if report.phase2 is not None else None,
        }
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "n": config.n,
            "R": "planar" if config.is_planar else config.R,
            "omega": config.omega,
            "K": config.K,
        },
        "coeffs": [[c.real, c.imag] for c in choreo.path.coeffs],
        "diagnostics": diagnostics,
    }


def _record_from_dict(data) -> PhaseRecord:
    if not isinstance(data, dict):
        raise MalformedSolutionError("phase record must be an object")
    try:
        kwargs = {name: data[name] for name in _RECORD_FIELDS if name in data}
        missing = [name for name, required in _RECORD_FIELDS.items() if required and name not in kwargs]
        if missing:
            raise MalformedSolutionError(f"phase record misses fields: {missing}")
        return PhaseRecord(**kwargs)
    except TypeError as exc:
        raise MalformedSolutionError(f"bad phase record: {exc}") from None


def _finite_number(value) -> float:
    """value as a float; json.loads also gives NaN, Infinity, strings and bools."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def solution_from_dict(data) -> Choreography:
    """Rebuild a Choreography from the dictionary form, validating shape."""
    if not isinstance(data, dict):
        raise MalformedSolutionError("solution document must be an object")
    if data.get("format_version") != FORMAT_VERSION:
        raise MalformedSolutionError(
            f"unsupported format_version {data.get('format_version')!r}"
        )
    try:
        raw_config = data["config"]
        raw_coeffs = data["coeffs"]
    except KeyError as exc:
        raise MalformedSolutionError(f"missing key {exc}") from None

    try:
        R = raw_config["R"]
        config = Configuration(
            n=raw_config["n"],
            R=math.inf if R == "planar" else float(R),
            K=raw_config["K"],
            omega=float(raw_config.get("omega", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSolutionError(f"bad config: {exc}") from None

    if not isinstance(raw_coeffs, list) or len(raw_coeffs) != 2 * config.K + 1:
        raise MalformedSolutionError("coeffs must list 2K+1 [re, im] pairs")
    try:
        coeffs = [complex(_finite_number(re), _finite_number(im)) for re, im in raw_coeffs]
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedSolutionError(f"bad coefficient entry: {exc}") from None

    diagnostics = data.get("diagnostics")
    if diagnostics is None:
        report = SolveReport()
    elif isinstance(diagnostics, dict):
        phase1 = diagnostics.get("phase1")
        phase2 = diagnostics.get("phase2")
        report = SolveReport(
            phase1=_record_from_dict(phase1) if phase1 is not None else None,
            phase2=_record_from_dict(phase2) if phase2 is not None else None,
        )
    else:
        raise MalformedSolutionError("diagnostics must be an object or null")

    return Choreography(config=config, path=TrigPath(coeffs), report=report)


def save_solution(file_path, choreo: Choreography) -> None:
    """Write atomically: a temporary file next to the target, then rename."""
    target = Path(file_path)
    payload = json.dumps(solution_to_dict(choreo), indent=1)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.write("\n")
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_solution(file_path) -> Choreography:
    """Read one solution file; malformed content raises MalformedSolutionError."""
    try:
        text = Path(file_path).read_text()
    except OSError as exc:
        raise MalformedSolutionError(f"cannot read {file_path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedSolutionError(f"invalid JSON in {file_path}: {exc}") from None
    return solution_from_dict(data)


def _data_root():
    return resources.files(__package__) / "data"


def bundled_names() -> list[str]:
    """Names of the orbits shipped with the package, sorted."""
    root = _data_root()
    return sorted(entry.name[: -len(".json")] for entry in root.iterdir() if entry.name.endswith(".json"))


def load_bundled(name: str) -> Choreography:
    """Load a bundled orbit or seed by name (see bundled_names)."""
    entry = _data_root() / f"{name}.json"
    try:
        text = entry.read_text()
    except (FileNotFoundError, OSError):
        raise MalformedSolutionError(
            f"no bundled solution named {name!r}; available: {', '.join(bundled_names())}"
        ) from None
    return solution_from_dict(json.loads(text))
