"""Shared domain types: lattice specification, wavevector bookkeeping,
delay maps, and run-configuration parsing.

All types are plain immutable dataclasses; they can be shared freely
across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from enum import Enum
from typing import Optional, Union

import numpy as np

TWO_PI = 2.0 * math.pi


def check_delay(tau: float) -> None:
    """The one rule for a delay argument: finite and >= 0."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")


def check_coupling(C: float) -> None:
    """The one rule for a coupling argument: finite and >= 0."""
    if not (math.isfinite(C) and C >= 0):
        raise ValueError(f"coupling C must be finite and >= 0, got {C}")


class Model(Enum):
    STUART_LANDAU = "sl"
    FITZHUGH_NAGUMO = "fhn"


@dataclass(frozen=True)
class SLParams:
    """Stuart-Landau local parameters: alpha controls the local bifurcation,
    beta is the intrinsic frequency."""
    alpha: float
    beta: float


@dataclass(frozen=True)
class FHNParams:
    """FitzHugh-Nagumo parameters with the standard excitable defaults."""
    I: float = 0.0
    a: float = 0.7
    b: float = 0.8
    eps: float = 0.08
    v_r: float = 2.0


ModelParams = Union[SLParams, FHNParams]


@dataclass(frozen=True)
class LatticeSpec:
    """An M x N torus of delay-coupled nodes.

    Each node receives input from the node above (wrapping row 0 to row M-1)
    and the node to its left (wrapping col 0 to col N-1).
    """
    rows: int
    cols: int
    model: Model
    params: ModelParams
    coupling: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("lattice dimensions must be >= 1")
        check_coupling(self.coupling)

    @property
    def state_dim(self) -> int:
        return 2 if self.model is Model.STUART_LANDAU else 3


@dataclass(frozen=True)
class WaveVector:
    """Lattice wavevector (k1, k2) with the rotated coordinates
    k_plus = (k1+k2)/2, k_minus = (k1-k2)/2."""
    k1: float
    k2: float

    @property
    def k_plus(self) -> float:
        return 0.5 * (self.k1 + self.k2)

    @property
    def k_minus(self) -> float:
        return 0.5 * (self.k1 - self.k2)


def enumerate_modes(spec: LatticeSpec) -> list[WaveVector]:
    """All M*N admissible lattice wavevectors.

    Components are canonicalized to [0, 2*pi), so the homogeneous mode is
    reported as (0, 0).
    """
    modes = []
    for l in range(spec.rows):
        for j in range(spec.cols):
            k1 = TWO_PI * l / spec.rows
            k2 = TWO_PI * j / spec.cols
            modes.append(WaveVector(k1, k2))
    return modes


def enumerate_mode_classes(spec: LatticeSpec) -> list[WaveVector]:
    """One mode of each class {q, -q} (mod 2*pi) of ``enumerate_modes``,
    in its order: mode (l, j) is kept when its index l*N + j is at most
    that of its partner ((-l) mod M, (-j) mod N). The 5x5 torus has 13
    classes, the 4x4 one 10."""
    M, N = spec.rows, spec.cols
    return [q for i, q in enumerate(enumerate_modes(spec))
            if i <= (-(i // N)) % M * N + (-(i % N)) % N]


@dataclass(frozen=True)
class DelayMap:
    """Per-edge coupling delays on the torus.

    ``down[m, n]`` is the delay on the edge from node (m-1, n) into (m, n),
    ``right[m, n]`` the delay from (m, n-1) into (m, n).
    """
    down: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        down = np.asarray(self.down, dtype=float)
        right = np.asarray(self.right, dtype=float)
        object.__setattr__(self, "down", down)
        object.__setattr__(self, "right", right)
        if down.shape != right.shape or down.ndim != 2:
            raise ValueError("down/right must be M x N matrices of equal shape")
        if not (np.all(np.isfinite(down)) and np.all(np.isfinite(right))):
            raise ValueError("delays must be finite")
        n_bad = np.count_nonzero(down <= 0) + np.count_nonzero(right <= 0)
        if n_bad:
            # the count and the first few edges: a large image can have 10^5
            shown = [f"{name}[{m},{n}]={mat[m, n]:.6g}"
                     for name, mat in (("down", down), ("right", right))
                     for m, n in np.argwhere(mat <= 0)[:5]][:5]
            more = ", ..." if n_bad > 5 else ""
            raise ValueError(f"nonpositive delays on {n_bad} edges: "
                             + ", ".join(shown) + more)

    @staticmethod
    def homogeneous(rows: int, cols: int, tau: float) -> "DelayMap":
        full = np.full((rows, cols), float(tau))
        return DelayMap(full, full.copy())

    @property
    def max_delay(self) -> float:
        return float(max(self.down.max(), self.right.max()))

    @property
    def min_delay(self) -> float:
        return float(min(self.down.min(), self.right.min()))


class ConfigError(ValueError):
    """Raised on malformed run configurations; carries the offending key path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


@dataclass(frozen=True)
class SimSettings:
    t_end: float
    dt: Optional[float] = None   # None -> integrator default
    record_every: int = 1


@dataclass(frozen=True)
class RunConfig:
    spec: LatticeSpec
    tau: Optional[float]                    # homogeneous delay, if given
    delay_files: Optional[dict] = None      # {"down": path, "right": path}
    sim: Optional[SimSettings] = None
    seed: int = 0

    def to_dict(self) -> dict:
        out = {
            "model": self.spec.model.value,
            "M": self.spec.rows,
            "N": self.spec.cols,
            "params": asdict(self.spec.params),
            "C": self.spec.coupling,
            "seed": self.seed,
        }
        if self.tau is not None:
            out["delay"] = {"homogeneous": self.tau}
        elif self.delay_files is not None:
            out["delay"] = {"files": dict(self.delay_files)}
        if self.sim is not None:
            out["sim"] = {key: value for key, value in asdict(self.sim).items()
                          if value is not None}
        return out


_TOP_KEYS = {"model", "M", "N", "params", "C", "delay", "sim", "seed"}


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}{key}", "missing required field")
    return doc[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:       # an int too large for a double, as 1e400 is
        number = value = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _as_positive_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(path, f"expected a positive integer, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse a JSON run configuration into a fully-resolved RunConfig.

    Unknown keys, missing required fields and out-of-range values raise
    ConfigError with the offending path.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:   # also an int beyond Python's digit limit
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("$", "top level must be an object")

    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigError(key, "unknown key")

    model_str = _require(doc, "model", "")
    if model_str not in ("sl", "fhn"):
        raise ConfigError("model", f'must be "sl" or "fhn", got {model_str!r}')
    model = Model.STUART_LANDAU if model_str == "sl" else Model.FITZHUGH_NAGUMO

    rows = _as_positive_int(_require(doc, "M", ""), "M")
    cols = _as_positive_int(_require(doc, "N", ""), "N")
    C = _as_number(_require(doc, "C", ""), "C")
    if C < 0:
        raise ConfigError("C", f"must be >= 0, got {C}")

    raw_params = doc.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("params", "must be an object")
    # the parameter dataclass declares the names; a field without a
    # default is required
    cls = SLParams if model is Model.STUART_LANDAU else FHNParams
    names = [f.name for f in fields(cls)]
    for key in raw_params:
        if key not in names:
            raise ConfigError(f"params.{key}", "unknown key")
    values = {}
    for f in fields(cls):
        if f.name in raw_params or f.default is MISSING:
            value = _require(raw_params, f.name, "params.")
            values[f.name] = _as_number(value, f"params.{f.name}")
    params: ModelParams = cls(**values)

    tau = None
    delay_files = None
    if "delay" in doc:
        delay = doc["delay"]
        if not isinstance(delay, dict) or set(delay) - {"homogeneous", "files"}:
            raise ConfigError("delay", 'must be {"homogeneous": tau} or {"files": {...}}')
        if "homogeneous" in delay and "files" in delay:
            raise ConfigError("delay", "give either homogeneous or files, not both")
        if "homogeneous" in delay:
            tau = _as_number(delay["homogeneous"], "delay.homogeneous")
            if tau <= 0:
                raise ConfigError("delay.homogeneous", f"must be > 0, got {tau}")
        elif "files" in delay:
            files = delay["files"]
            if (not isinstance(files, dict) or set(files) != {"down", "right"}
                    or not all(isinstance(v, str) for v in files.values())):
                raise ConfigError("delay.files", 'must be {"down": path, "right": path}')
            delay_files = dict(files)
        else:
            raise ConfigError("delay", "empty delay object")

    sim = None
    if "sim" in doc:
        raw_sim = doc["sim"]
        if not isinstance(raw_sim, dict) or set(raw_sim) - {"t_end", "dt", "record_every"}:
            raise ConfigError("sim", "allowed keys: t_end, dt, record_every")
        t_end = _as_number(_require(raw_sim, "t_end", "sim."), "sim.t_end")
        if t_end <= 0:
            raise ConfigError("sim.t_end", f"must be > 0, got {t_end}")
        dt = None
        if "dt" in raw_sim:
            dt = _as_number(raw_sim["dt"], "sim.dt")
            if dt <= 0:
                raise ConfigError("sim.dt", f"must be > 0, got {dt}")
        record_every = raw_sim.get("record_every", 1)
        record_every = _as_positive_int(record_every, "sim.record_every")
        sim = SimSettings(t_end=t_end, dt=dt, record_every=record_every)

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed",
                          f"expected a non-negative integer, got {seed!r}")

    spec = LatticeSpec(rows=rows, cols=cols, model=model, params=params, coupling=C)
    return RunConfig(spec=spec, tau=tau, delay_files=delay_files, sim=sim, seed=seed)
