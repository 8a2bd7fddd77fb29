"""Reading and writing orbit files, and access to the bundled solutions.

A solution file is JSON with four top-level keys:

    format_version   integer, currently 1
    config           {"n": int, "R": finite number or "planar", "omega": finite number, "K": int}
    coeffs           list of [re, im] pairs of finite numbers ordered k = -K..K
    diagnostics      {"phase1": record or null, "phase2": record or null} or null

A number is a JSON number, not a string or a bool; a record's fields have
PhaseRecord's types.

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

# PhaseRecord's field names, each mapped to its type name and to whether a file must give it.
_RECORD_FIELDS = {f.name: (f.type, f.default is MISSING) for f in fields(PhaseRecord)}


class MalformedSolutionError(ValueError):
    """Solution file content is not a valid format-1 document."""


def solution_to_dict(choreo: Choreography) -> dict:
    """JSON-ready dictionary for one solved (or seed) orbit."""
    config = choreo.config
    report = choreo.report
    diagnostics = None
    if report.phase1 is not None or report.phase2 is not None:
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
        # A float field takes a finite number; an int or bool field a value of exactly that type.
        kwargs = {name: _finite_number(data[name], name) if kind == "float" else data[name]
                  for name, (kind, _) in _RECORD_FIELDS.items() if name in data}
    except (ValueError, OverflowError) as exc:
        raise MalformedSolutionError(f"bad phase record: {exc}") from None
    missing = [name for name, (_, required) in _RECORD_FIELDS.items() if required and name not in kwargs]
    wrong = [name for name, value in kwargs.items() if type(value).__name__ != _RECORD_FIELDS[name][0]]
    if missing or wrong:
        raise MalformedSolutionError(f"phase record: missing fields {missing}, mistyped fields {wrong}")
    return PhaseRecord(**kwargs)


def _finite_number(value, name: str = "") -> float:
    """value as a float, else ValueError naming it; json.loads also gives NaN, Infinity, strings and bools."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{name} {value!r} is not a finite number".lstrip())
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
            R=math.inf if R == "planar" else _finite_number(R, "R"),
            K=raw_config["K"],
            omega=_finite_number(raw_config.get("omega", 0.0), "omega"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    return _read_solution(Path(file_path), file_path)


def _read_solution(source, shown) -> Choreography:
    """Parse the file or package resource source, naming it shown in any MalformedSolutionError."""
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedSolutionError(f"cannot read {shown}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedSolutionError(f"{shown} is not UTF-8 text: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedSolutionError(f"invalid JSON in {shown}: {exc}") from None
    except RecursionError:
        raise MalformedSolutionError(f"invalid JSON in {shown}: nested too deeply to parse") from None
    return solution_from_dict(data)


def _data_root():
    return resources.files(__package__) / "data"


def bundled_names() -> list[str]:
    """Names of the orbits shipped with the package, sorted."""
    root = _data_root()
    return sorted(entry.name[: -len(".json")] for entry in root.iterdir() if entry.name.endswith(".json"))


def load_bundled(name: str) -> Choreography:
    """Load a bundled orbit or seed by name; any name not in bundled_names is rejected."""
    names = bundled_names()
    if name not in names:
        raise MalformedSolutionError(f"no bundled solution named {name!r}; available: {', '.join(names)}")
    return _read_solution(_data_root() / f"{name}.json", f"bundled solution {name!r}")
