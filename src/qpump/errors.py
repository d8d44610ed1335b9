"""Exception types shared across the package.

Each error names the violated precondition or invariant and states the
exit code the CLI returns for it, so library code should raise the most
specific class that applies.  Codes, stderr headings and classes:

    2  configuration error      SchemaError, NoTimeDomain
    3  invariant violated       NonUnitary, StencilOutOfDomain, GridTooCoarse,
                                PhaseUnwrapFailure, and a bare ValueError
    4  outside validity region  ZeroTemperature, NonPulseCycle,
                                EnergyAtBandEdge, RegionTouchesDiscontinuity
    5  resource cap             MaxEventsExceeded
"""

from __future__ import annotations

HEADINGS = {2: "configuration error", 3: "invariant violated",
            4: "outside validity region", 5: "resource cap"}


class PumpError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 3

    def __init_subclass__(cls, exit_code: int):
        cls.exit_code = exit_code


class NonUnitary(PumpError, exit_code=3):
    """A scattering matrix failed a unitarity (or Hermitization) check."""


class StencilOutOfDomain(PumpError, exit_code=3):
    """A finite-difference stencil would need data below the band bottom E = 0."""


class ZeroTemperature(PumpError, exit_code=4):
    """Operation requires T > 0 (entropy and thermal-noise currents)."""


class PhaseUnwrapFailure(PumpError, exit_code=3):
    """Adjacent phase samples differ by >= pi; continuation is ambiguous."""


class GridTooCoarse(PumpError, exit_code=3):
    """Discrete samples are too sparse for a reliable geometric quantity."""


class NonPulseCycle(PumpError, exit_code=4):
    """Operation requires a pulse cycle (scatterer settles outside a window)."""


class NoTimeDomain(PumpError, exit_code=2):
    """The cycle has no time domain of the kind asked for: a period for the
    loop formulas, a period or a window for a time grid."""


class EnergyAtBandEdge(PumpError, exit_code=4):
    """Energy on a potential plateau, where the local wavenumber vanishes,
    or at or below the leads' band bottom E = 0."""


class MaxEventsExceeded(PumpError, exit_code=5):
    """An internal iteration cap was exceeded."""


class RegionTouchesDiscontinuity(PumpError, exit_code=4):
    """A phase-space region straddles a scattering-map discontinuity."""


class SchemaError(PumpError, exit_code=2):
    """A run configuration failed validation.

    `path` locates the offending entry, e.g. ``model.delta``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
