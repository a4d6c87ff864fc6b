"""Plain-text model and plan files, and CSV matrix I/O.

One structured-text format serves both model files and plan files: blank
lines and ``#`` comments are ignored, ``[section]`` headers open a section,
and ``key = value`` lines fill it (keys before any header land in the
default section).  The parser keeps the line number of every key so
validation errors can point at the offending line; a key the loader does not
read is such an error, so a misspelt key is not silently ignored.  Matrices
are CSV, row-major, with a two-line header carrying n and d; floats are
written with 17 significant digits so round-trips are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .experiments import (
    TAU_COUNT_HALF_KL,
    SweepGrid,
    TrialPlan,
    check_setting,
    resolve_tau_count,
)
from .models import (
    DiscreteJointModel,
    GaussianModel,
    JointModel,
    make_bernoulli,
)


@dataclass(frozen=True)
class ConfigValue:
    raw: str
    line: int


class ConfigSource:
    """Parsed key -> value map for one file, with line-precise errors."""

    def __init__(self, path: str, sections: dict):
        self.path = path
        self.sections = sections
        self.read: set[tuple[str, str]] = set()  # (section, key) looked up

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})

    def reject_unread(self) -> None:
        """Raise for the first key, by line, that no lookup has read."""
        unread = [
            (value.line, key, section)
            for section, values in self.sections.items()
            for key, value in values.items()
            if (section, key) not in self.read
        ]
        if unread:
            line, key, section = min(unread)
            where = f"[{section}]" if section else "top level"
            raise ValidationError(f"{self.path}:{line}: unknown key {key!r} in {where}")

    def location(self, key: str, section: str) -> str:
        value = self.section(section).get(key)
        return f"{self.path}:{value.line}" if value else self.path

    def error(self, key: str, section: str, message: str) -> ValidationError:
        return ValidationError(f"{self.location(key, section)}: {message}")

    def get(self, key: str, section: str = ""):
        self.read.add((section, key))
        value = self.section(section).get(key)
        return value.raw if value is not None else None

    def require(self, key: str, section: str = "") -> str:
        raw = self.get(key, section)
        if raw is None:
            where = f"[{section}]" if section else "top level"
            raise ValidationError(
                f"{self.path}: missing required key {key!r} in {where}"
            )
        return raw

    def _get_as(self, cast, what: str, key: str, section: str):
        raw = self.get(key, section)
        if raw is None:
            return None
        try:
            return cast(raw)
        except ValueError:
            raise self.error(key, section, f"{key} must be {what}, got {raw!r}")

    def get_float(self, key: str, section: str = ""):
        return self._get_as(float, "a number", key, section)

    def get_int(self, key: str, section: str = ""):
        return self._get_as(int, "an integer", key, section)


def parse_config(path: str) -> ConfigSource:
    sections: dict = {"": {}}
    current = ""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{path}:{lineno}: expected 'key = value' or '[section]', "
                    f"got {line!r}"
                )
            key, _, value = line.partition("=")
            sections[current][key.strip()] = ConfigValue(value.strip(), lineno)
    return ConfigSource(path, sections)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _model_from_section(source: ConfigSource, section: str) -> JointModel:
    kind = source.require("kind", section).lower()
    if kind == "gaussian":
        rho = source.get_float("rho", section)
        if rho is None:
            raise source.error("kind", section, "gaussian models require rho")
        try:
            return GaussianModel(rho=rho)
        except ValidationError as exc:
            raise source.error("rho", section, str(exc))
    if kind == "bernoulli":
        tau = source.get_float("tau", section)
        p = source.get_float("p", section)
        if tau is None or p is None:
            raise source.error("kind", section, "bernoulli models require tau and p")
        try:
            return make_bernoulli(tau, p)
        except ValidationError as exc:
            key = "tau" if "tau" in str(exc) else "p"
            raise source.error(key, section, str(exc))
    if kind == "discrete":
        m = source.get_int("alphabet_size", section)
        raw = source.get("joint", section)
        if m is None or raw is None:
            raise source.error(
                "kind", section, "discrete models require alphabet_size and joint"
            )
        try:
            entries = [float(tok) for tok in raw.split()]
        except ValueError:
            raise source.error(
                "joint", section, "joint must be whitespace-separated numbers"
            )
        if len(entries) != m * m:
            raise source.error(
                "joint",
                section,
                f"joint must list alphabet_size^2 = {m * m} entries row-major, "
                f"got {len(entries)}",
            )
        try:
            return DiscreteJointModel(
                joint=np.array(entries, dtype=np.float64).reshape(m, m)
            )
        except ValidationError as exc:
            raise source.error("joint", section, str(exc))
    raise source.error(
        "kind", section, f"kind must be gaussian, bernoulli, or discrete, got {kind!r}"
    )


def load_model(path: str) -> JointModel:
    """Read a model file; invariant failures are reported with the file and
    line of the violating key, and so is a key the model does not use."""
    source = parse_config(path)
    section = "model" if source.section("model") else ""
    model = _model_from_section(source, section)
    source.reject_unread()
    return model


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def _parse_values(raw: str, cast) -> tuple:
    try:
        return tuple(cast(tok) for tok in raw.split())
    except ValueError:
        raise ValidationError(f"could not parse list {raw!r}")


def tau_count_setting(model: JointModel, raw, where: str):
    """A count-test level as a plan key or a flag gives it: None,
    ``half-kl``, or a number, checked; ``where`` (the key's ``path:line``,
    or the flag) leads the error for anything else."""
    if raw is None or raw == TAU_COUNT_HALF_KL:
        return raw
    try:
        return resolve_tau_count(model, raw)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def flag_settings(model: JointModel, flags: dict) -> dict:
    """``flags``, the run settings given on the command line by TrialPlan
    field, with a ``--tau-count`` level checked for ``model``."""
    if "tau_count" not in flags:
        return dict(flags)
    tau_count = tau_count_setting(model, flags["tau_count"], "--tau-count")
    return {**flags, "tau_count": tau_count}


def load_plan(path: str, flags: Optional[dict] = None) -> TrialPlan:
    """Read a plan file: a [model] section, a [run] section, and an optional
    [sweep] section with value lists.  ``flags`` (TrialPlan fields given on
    the command line) replace the run keys they name; the file's keys are
    read and checked either way, and a setting neither gives takes
    TrialPlan's default."""
    source = parse_config(path)
    model = _model_from_section(source, "model" if source.section("model") else "")
    run = "run" if source.section("run") else ""
    detectors = source.get("detectors", run)
    settings = {
        "detectors": detectors and detectors.replace(",", " ").split(),
        "tau_count": tau_count_setting(
            model, source.get("tau_count", run), source.location("tau_count", run)
        ),
        "n": source.get_int("n", run),
        "d": source.get_int("d", run),
        "seed": source.get_int("seed", run),
        "trials": source.get_int("trials", run),
        "tau_glrt": source.get_float("tau_glrt", run),
        "tau_sum": source.get_float("tau_sum", run),
        "pd_samples": source.get_int("pd_samples", run),
    }
    settings = {key: value for key, value in settings.items() if value is not None}
    for key, value in settings.items():
        try:
            check_setting(key, value)
        except ValidationError as exc:
            raise source.error(key, run, str(exc)) from None
    settings.update(flag_settings(model, flags or {}))

    def sweep_values(key, cast):
        raw = source.get(key, "sweep")
        return _parse_values(raw, cast) if raw else None

    sweep_grid = None
    if source.section("sweep"):
        param = "rho" if isinstance(model, GaussianModel) else "tau"
        sweep_grid = SweepGrid(
            param_values=sweep_values(param, float),
            n_values=sweep_values("n", int),
            d_values=sweep_values("d", int),
        )
    source.reject_unread()

    if "detectors" not in settings:
        raise ValidationError(f"{path}: missing required key 'detectors' in [run]")
    if "n" not in settings or "d" not in settings:
        raise ValidationError(f"{path}: plan needs n and d in [run] (or --n/--d)")
    if "seed" not in settings:
        raise ValidationError(f"{path}: plan needs a seed in [run] (or --seed)")
    return TrialPlan(model=model, sweep=sweep_grid, **settings)


# ---------------------------------------------------------------------------
# CSV matrices
# ---------------------------------------------------------------------------


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix)
    n, d = matrix.shape
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n,d\n{n},{d}\n")
        for row in matrix:
            handle.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def read_matrix_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(k, line.strip()) for k, line in enumerate(handle, 1) if line.strip()]
    if len(lines) < 2 or lines[0][1] != "n,d":
        raise ValidationError(f"{path}:1: expected the header line 'n,d'")
    try:
        n, d = (int(tok) for tok in lines[1][1].split(","))
    except ValueError:
        raise ValidationError(f"{path}:{lines[1][0]}: expected 'n,d' integer values")
    if len(lines) != 2 + n:
        raise ValidationError(
            f"{path}: expected {n} data rows after the header, got {len(lines) - 2}"
        )
    rows = []
    for number, line in lines[2:]:
        values = line.split(",")
        if len(values) != d:
            raise ValidationError(
                f"{path}:{number}: expected {d} comma-separated values"
            )
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            raise ValidationError(f"{path}:{number}: expected numbers, got {line!r}")
    return np.array(rows, dtype=np.float64)
