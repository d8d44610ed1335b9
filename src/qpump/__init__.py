"""Adiabatic quantum pump transport from frozen scattering matrices.

The package computes charge, heat, entropy and noise flows of a slowly
driven scatterer from its frozen matrix S(E, t): differential data
(energy shift, time delay, curvature), thermally averaged currents and
their bounds, geometric and topological charge formulas, counting
statistics of pulses, a classical phase-space counterpart, and a small
collection of built-in models with a command-line front end.
"""

from .errors import (EnergyAtBandEdge, GridTooCoarse, MaxEventsExceeded,
                     NonPulseCycle, NonUnitary, NoTimeDomain,
                     PhaseUnwrapFailure, PumpError,
                     RegionTouchesDiscontinuity, SchemaError,
                     StencilOutOfDomain, ZeroTemperature)
from .quadrature import QuadratureSpec, gauss_legendre, midpoint_grid
from .smatrix import (CurvatureIdentity, DifferentialData, PumpCycle,
                      TwoChannelParams, apply_gauge_and_fiducial,
                      build_two_channel, curvature_identity,
                      decompose_two_channel, default_dispersion,
                      differential_data, verify_cycle)
from .transport import (ThermalState, TransportReport, birman_krein_residual,
                        bpt_current, cycle_charge, det_phase_rate,
                        dissipation_current, entropy_current, entropy_weight,
                        fermi_derivative, fermi_weight, noise_current,
                        noise_weight, thermal_energy_nodes, transport_report)
from .geometry import (amplitude_winding, charge_from_global_angle,
                       cylinder_charge, fractional_charge, global_angle,
                       hopf_vector, plaquette_phases, random_smooth_patch,
                       row_states, spherical_polygon_area, stokes_residual,
                       surface_flux, winding_number)
from .models import (BicycleGeometry, GalileanCheck, ModelSpec,
                     PiecewisePotential, galilean_check, make_battery_cycle,
                     make_bicycle_cycle, make_custom_two_channel,
                     make_optimal_cycle, make_pulse_cycle, make_pump,
                     make_random_analytic_cycle, make_sink_cycle,
                     make_snowplow_cycle, make_uturn_cycle,
                     reflectionless_points, smooth_step, transfer_matrices,
                     transfer_matrix_smatrix, MODEL_KINDS)
from .classical import (BatteryFieldResult, PlowSpec, ScatterResult,
                        classical_battery_shift, classical_energy_shift,
                        classical_scatter, inverse_scatter, liouville_residual,
                        partition_disagreements, partition_margin,
                        plow_charge_bpt, plow_charge_direct,
                        predicted_transmit)
from .counting import (NoiseReport, mean_transferred_charge, noise_report,
                       second_cumulant_direct, shot_noise_finite_t,
                       shot_noise_zero_t, thermal_noise)

__version__ = "0.1.0"
