"""Exception hierarchy shared by all solver modules."""


class WindwavesError(Exception):
    """Base class for every error raised by this package."""


class OutOfDomain(WindwavesError):
    """Profile evaluated outside its altitude interval [0, h_plus]."""


class OrderUnavailable(WindwavesError):
    """Requested derivative order exceeds the profile's smoothness.

    A wind with kinks carries delta masses in U'', which enter the solvers
    only through derivative jump conditions; the Wronskian system, which
    needs U'' pointwise, refuses it.
    """


class DegenerateShear(WindwavesError):
    """A critical point has |U'(s)| below the regular-value threshold."""


class EndpointCritical(WindwavesError):
    """The target speed equals U at an endpoint of the air column."""


class InfiniteDomain(WindwavesError):
    """A numerical integration was requested on an unbounded air column."""


class DegenerateAtInterface(WindwavesError):
    """The Rayleigh solution vanishes at the interface (channel-type mode).

    The interface normalization y(0) = 1 is impossible here; the impedance
    y'(0)/y(0) is not reported.
    """


class NearSingularCoefficient(WindwavesError):
    """Direct integration attempted too close to a critical-layer singularity.

    Use the limiting solver when |Im c| falls below the switch threshold while
    Re c sits in the range of U.
    """


class SeriesRadiusTooSmall(WindwavesError):
    """Local series patches of adjacent critical layers would overlap."""


class IncompatibleDepths(WindwavesError):
    """Shooting requires a finite wall but the fluid column is unbounded."""


class RequiresSurfaceTension(WindwavesError):
    """No finite Kelvin-Helmholtz onset speed exists when sigma = 0."""


class NoCriticalLayer(WindwavesError):
    """c_k lies outside the range of the wind profile; no layer resonance.

    In this regime no unstable wave speed can bifurcate from c_k for small
    density ratio, so the growth-constant machinery does not apply.
    """


class HypothesisViolated(WindwavesError):
    """A certificate was requested outside its regime of validity."""


class NoConvergence(WindwavesError):
    """Root iteration exhausted max_iter without meeting the tolerance."""


class BoundaryZero(WindwavesError):
    """A residual zero sits (numerically) on the counting contour."""


class PhaseJumpUnresolved(WindwavesError):
    """Adaptive contour refinement could not resolve a phase jump."""


class BranchLost(WindwavesError):
    """Continuation corrector diverged; the eigenvalue branch was lost."""


class ConfigError(WindwavesError):
    """Invalid or inconsistent run configuration."""
