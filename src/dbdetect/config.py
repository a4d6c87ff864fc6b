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
from .experiments import TAU_COUNT_HALF_KL, SweepGrid, TrialPlan, resolve_tau_count
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

    def get(self, key: str, section: str = "", default=None):
        self.read.add((section, key))
        value = self.section(section).get(key)
        return value.raw if value is not None else default

    def require(self, key: str, section: str = "") -> str:
        raw = self.get(key, section)
        if raw is None:
            where = f"[{section}]" if section else "top level"
            raise ValidationError(
                f"{self.path}: missing required key {key!r} in {where}"
            )
        return raw

    def _get_as(self, cast, what: str, key: str, section: str, default):
        raw = self.get(key, section)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise self.error(key, section, f"{key} must be {what}, got {raw!r}")

    def get_float(self, key: str, section: str = "", default=None):
        return self._get_as(float, "a number", key, section, default)

    def get_int(self, key: str, section: str = "", default=None):
        return self._get_as(int, "an integer", key, section, default)


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


def load_plan(path: str, overrides: Optional[dict] = None) -> TrialPlan:
    """Read a plan file: a [model] section, a [run] section, and an optional
    [sweep] section with value lists.  ``overrides`` (from CLI flags) replace
    scalar run keys; the file's keys are read and checked either way."""
    source = parse_config(path)
    model = _model_from_section(source, "model" if source.section("model") else "")
    run = "run" if source.section("run") else ""
    overrides = overrides or {}

    def pick(key, getter, default=None):
        value = getter(key, run, default)
        return value if overrides.get(key) is None else overrides[key]

    detectors_raw = pick("detectors", source.get)
    tau_count = tau_count_setting(
        model, source.get("tau_count", run), source.location("tau_count", run)
    )
    if overrides.get("tau_count") is not None:
        tau_count = tau_count_setting(model, overrides["tau_count"], "--tau-count")
    n = pick("n", source.get_int)
    d = pick("d", source.get_int)
    seed = pick("seed", source.get_int)
    trials = pick("trials", source.get_int, 2000)
    tau_glrt = pick("tau_glrt", source.get_float, 0.0)
    tau_sum = pick("tau_sum", source.get_float)
    pd_samples = pick("pd_samples", source.get_int, 1_000_000)

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

    if detectors_raw is None:
        raise ValidationError(f"{path}: missing required key 'detectors' in [run]")
    if isinstance(detectors_raw, str):
        detectors = tuple(detectors_raw.replace(",", " ").split())
    else:
        detectors = tuple(detectors_raw)
    if n is None or d is None:
        raise ValidationError(f"{path}: plan needs n and d in [run] (or --n/--d)")
    if seed is None:
        raise ValidationError(f"{path}: plan needs a seed in [run] (or --seed)")
    return TrialPlan(
        model=model,
        n=int(n),
        d=int(d),
        trials=int(trials),
        seed=int(seed),
        detectors=detectors,
        tau_glrt=float(tau_glrt),
        tau_sum=tau_sum,
        tau_count=tau_count,
        pd_samples=int(pd_samples),
        sweep=sweep_grid,
    )


# ---------------------------------------------------------------------------
# CSV matrices
# ---------------------------------------------------------------------------


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix)
    n, d = matrix.shape
    lines = ["n,d", f"{n},{d}"]
    for row in matrix:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


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


def matrix_for_model(model: JointModel, matrix: np.ndarray) -> np.ndarray:
    """Cast a CSV matrix to the model's observation dtype (validated ints for
    discrete alphabets, floats otherwise)."""
    if isinstance(model, GaussianModel):
        return matrix
    as_int = matrix.astype(np.int64)
    if not np.array_equal(as_int, matrix):
        raise ValidationError("discrete observations must be integers")
    return as_int
