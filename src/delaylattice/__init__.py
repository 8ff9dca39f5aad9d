"""Simulation and stability analysis for 2D lattices of delay-coupled
Stuart-Landau and FitzHugh-Nagumo oscillators, with pattern encoding via
heterogeneous coupling delays."""

from .core import (ConfigError, DelayMap, FHNParams, LatticeSpec, Model,
                   RunConfig, SLParams, WaveVector, enumerate_modes,
                   parse_config)
from .dde import (ConstantHistory, DenseOutput, FunctionHistory,
                  ShiftedReplayHistory, Trajectory, detect_spikes,
                  estimate_orbit_period, estimate_period,
                  plane_wave_history, simulate)
from .fhn import (FhnSteadyState, fhn_char_roots, fhn_hopf_points,
                  fhn_hybrid_dispersion, fhn_linearization,
                  fhn_saddle_node_C, fhn_steady_states, fhn_strong_spectrum)
from .lambertw import lambert_w_log
from .pattern import (FidelityReport, ShiftField, delays_from_timeshifts,
                      eta_from_image, read_pgm, verify_pattern, write_pgm)
from .roots import RootSet, find_roots_quasipoly, solve_cubic_real, solve_kepler
from .sl import (PlaneWave, StabilityClass, StabilityVerdict,
                 sl_alpha0, sl_enumerate_plane_waves, sl_floquet_chi,
                 sl_floquet_exact, sl_floquet_pcs, sl_hessian_at_trivial,
                 sl_hopf_threshold, sl_neutral_amplitude,
                 sl_stst_eigenvalues, sl_stst_pcs, sl_strong_spectrum)

__version__ = "0.1.0"
