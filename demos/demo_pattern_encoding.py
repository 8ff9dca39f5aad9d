"""Encoding a grayscale image into the spike pattern of a FitzHugh-Nagumo
lattice via componentwise time shifts.

The change of variables u[m,n](t) = v[m,n](t - eta[m,n]) maps a
synchronized periodic orbit of the homogeneously delayed lattice to a
phase-patterned orbit of a lattice with per-edge delays
tau - eta[m,n] + eta[neighbor]. Stability is preserved exactly, so any
grayscale image (gray -> eta) becomes a stable attractor whose relative
spike times reproduce the image.

Run:  python3 demos/demo_pattern_encoding.py   (under a minute: most of
the time goes into converging the reference orbit)
"""

import time

import numpy as np

from delaylattice import (ConstantHistory, DelayMap, FHNParams, LatticeSpec,
                          Model, ShiftedReplayHistory, ShiftField,
                          delays_from_timeshifts, detect_spikes,
                          estimate_orbit_period, eta_from_image, simulate,
                          verify_pattern)

C, TAU, DT = 3.0, 50.0, 0.01

# 1. reference orbit: one self-coupled node stands in for the synchronized
#    lattice solution (every node follows the same waveform)
print("converging the synchronized reference orbit (single node, tau=50) ...")
t0 = time.time()
ref_spec = LatticeSpec(rows=1, cols=1, model=Model.FITZHUGH_NAGUMO,
                       params=FHNParams(I=0.0), coupling=C)
ref = simulate(ref_spec, DelayMap.homogeneous(1, 1, TAU),
               ConstantHistory(np.array([[[2.0, 0.0, 0.0]]])),
               t_end=3500.0, dt=DT, record_every=5, store_full=True)
T = estimate_orbit_period(ref, t_discard=3000.0)
print(f"  orbit period T = {T:.3f}  ({time.time() - t0:.0f} s)")

# 2. the image: a 12x16 two-tone "checkerboard plus ramp" pattern
mm, nn = np.meshgrid(np.arange(12), np.arange(16), indexing="ij")
img = (128 + 100 * ((mm // 3 + nn // 4) % 2) - 60 * nn / 15).astype(np.uint8)
eta_max = 0.05 * T
eta = eta_from_image(img, 0.0, eta_max).eta
eta = np.round(eta / DT) * DT   # grid-aligned shifts replay exactly

# 3. transformed lattice: heterogeneous delays encode the image
print("integrating the 12x16 patterned lattice over 5 periods ...")
dm = delays_from_timeshifts(ShiftField(eta), TAU)
spec = LatticeSpec(rows=12, cols=16, model=Model.FITZHUGH_NAGUMO,
                   params=FHNParams(I=0.0), coupling=C)
traj = simulate(spec, dm, ShiftedReplayHistory(ref.dense, 3300.0, eta),
                t_end=5.0 * T, dt=DT, record_every=10)

# 4. read the pattern back from the spike times
detect_spikes(traj)
s0 = next(t for t in traj.spikes[0][0] if t >= eta_max + 1.0)
report = verify_pattern(traj, ShiftField(eta), T,
                        t_discard=s0 - eta_max - 0.5)
print(f"  circular correlation image vs spike phases: {report.correlation:.6f}")
print(f"  max circular deviation: {report.max_dev / T:.2e} periods")
print(f"  nodes without spikes: {len(report.missing_nodes)}")
print("\nEvery pixel's gray value is now stored in the relative spike time")
print("of its node, as a stable periodic attractor of the lattice.")
