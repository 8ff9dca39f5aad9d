"""Componentwise time-shift encoding: turn a per-node shift field into a
heterogeneous delay map, read shift fields from PGM images, and check that
a simulated trajectory realizes the encoded pattern.

The underlying change of variables is u[m,n](t) = v[m,n](t - eta[m,n]):
the transformed node runs ahead of the homogeneous orbit by eta[m,n], so a
node with larger eta spikes earlier by the same amount.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DelayMap
from .dde import Trajectory, detect_spikes


@dataclass(frozen=True)
class ShiftField:
    """Per-node time shifts; only differences between neighbors matter
    (a global constant is pure gauge)."""
    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        object.__setattr__(self, "eta", eta)
        if eta.ndim != 2:
            raise ValueError("eta must be an M x N matrix")
        if not np.all(np.isfinite(eta)):
            raise ValueError("eta entries must be finite")


def delays_from_timeshifts(eta: ShiftField, tau: float) -> DelayMap:
    """Delay map realizing the shift field on a base delay tau:
    down[m,n] = tau - eta[m,n] + eta[m-1,n], right analogous, with torus
    wrapping. `DelayMap` raises if any resulting delay is nonpositive or
    not finite."""
    e = eta.eta
    return DelayMap(down=tau - e + np.roll(e, 1, axis=0),
                    right=tau - e + np.roll(e, 1, axis=1))


# magic, width, height and maxval, separated by whitespace or by comments
# that end at a line end, then the one whitespace byte before the raster
_PGM_HEADER = re.compile(rb"(?:\s|#[^\r\n]*[\r\n])*(P[25])"
                         + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """8-bit grayscale PGM (P2 ASCII or P5 binary) as a uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError("not a P2/P5 PGM file")
    magic, i = header[1], header.end()
    width, height, maxval = (int(t) for t in header.groups()[1:])
    if maxval != 255:
        raise ValueError(f"only 8-bit PGM supported, maxval={maxval}")
    if width < 1 or height < 1:
        raise ValueError(f"PGM size {width}x{height} holds no pixel")
    if magic == b"P5":
        raster = data[i:i + width * height]
        if len(raster) < width * height:
            raise ValueError("truncated P5 raster")
        img = np.frombuffer(raster, dtype=np.uint8, count=width * height)
    else:
        values = [int(v) for v in data[i:].split()[:width * height]]
        if len(values) < width * height:
            raise ValueError("truncated P2 raster")
        # numpy may wrap an out-of-range int into uint8 without a word
        if not 0 <= min(values) <= max(values) <= maxval:
            raise ValueError(f"P2 sample outside 0..{maxval}")
        img = np.array(values, dtype=np.uint8)
    return img.reshape(height, width)


def write_pgm(path, img: np.ndarray):
    """8-bit grayscale image as a binary (P5) PGM file."""
    img = np.asarray(img, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def eta_from_image(image: np.ndarray, eta_min: float,
                   eta_max: float) -> ShiftField:
    """Linear gray-to-shift map: eta = eta_min + (g/255)*(eta_max-eta_min).
    Image row m maps to lattice row m, column n to lattice column n."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError(f"expected 8-bit image, got dtype {image.dtype}")
    if eta_min > eta_max:
        raise ValueError(f"eta_min {eta_min} exceeds eta_max {eta_max}")
    eta = eta_min + (image.astype(float) / 255.0) * (eta_max - eta_min)
    return ShiftField(eta=eta)


@dataclass(frozen=True)
class FidelityReport:
    correlation: Optional[float]
    max_dev: float
    missing_nodes: list


def _circular_dist(x, T):
    return (np.asarray(x) + 0.5 * T) % T - 0.5 * T


def _circular_correlation(a, b, T):
    """Fisher-Lee circular correlation of two time sequences modulo T."""
    ang_a = 2.0 * math.pi * np.asarray(a) / T
    ang_b = 2.0 * math.pi * np.asarray(b) / T
    sa = np.sin(ang_a - _circular_mean(ang_a))
    sb = np.sin(ang_b - _circular_mean(ang_b))
    denom = math.sqrt(float(np.sum(sa ** 2) * np.sum(sb ** 2)))
    if denom == 0.0:
        return None
    return float(np.sum(sa * sb) / denom)


def _circular_mean(ang):
    return math.atan2(float(np.mean(np.sin(ang))),
                      float(np.mean(np.cos(ang))))


def verify_pattern(traj: Trajectory, eta: ShiftField, T: float,
                   t_discard: float = 0.0) -> FidelityReport:
    """Compare per-node spike phases against the encoded shift field.

    Spikes are those of ``traj.spikes``, detected with the defaults of
    `detect_spikes` when the trajectory has none yet. The measured offset
    of node (m,n) is (spike time of the node minus spike time of node
    (0,0), the reference) mod T. The transformation advances
    each node by eta, so the induced offset is (eta_ref - eta) mod T;
    the report gives the circular correlation between measured and induced
    offsets plus the maximum absolute circular deviation. Correlation is
    undefined (None) for a constant shift field.
    """
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and > 0, got {T}")
    if traj.spikes is None:
        detect_spikes(traj)
    if eta.eta.shape != traj.shape:
        raise ValueError("shift field shape does not match the trajectory")

    # each node's first spike from t_discard on, NaN where it has none
    first = np.array([[next((t for t in ev if t >= t_discard), math.nan)
                       for ev in row] for row in traj.spikes], dtype=float)
    silent = np.isnan(first)
    missing = [tuple(mn) for mn in np.argwhere(silent).tolist()]
    if silent[0, 0]:
        return FidelityReport(correlation=None, max_dev=math.inf,
                              missing_nodes=missing)
    measured = (first[~silent] - first[0, 0]) % T
    expected = (eta.eta[0, 0] - eta.eta[~silent]) % T
    dev = _circular_dist(measured - expected, T)
    corr = _circular_correlation(measured, expected, T)
    return FidelityReport(correlation=corr,
                          max_dev=float(np.max(np.abs(dev))),
                          missing_nodes=missing)
