"""Exception hierarchy for numerical-domain failures.

Configuration objects raise plain ``ValueError`` (via ``DomainError``, which
subclasses it) when their invariants are violated at construction time.
Everything that can go wrong *during* a computation derives from
``ModelError`` so callers can distinguish bad input from a parameter regime
the model does not cover.
"""


class ModelError(Exception):
    """Base class for numerical-domain failures of the model."""


class DomainError(ModelError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateModeError(ModelError):
    """Coupling and detuning both vanish; mixing amplitudes are undefined."""


class NoSolutionError(ModelError):
    """A root was requested outside the attainable range of the function."""


class AmbiguousSolutionError(ModelError):
    """Several roots bracket the target; caller must disambiguate."""

    def __init__(self, message: str, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class BistabilityError(ModelError):
    """The pump drive has no single self-consistent occupation.

    Raised for a bistable drive, where three occupations solve the pump
    equation, with ``bracket`` the turning points (N-, N+) that straddle
    the middle one; for an undamped drive on the unshifted resonance, where
    the occupation diverges; and for a drive within rounding of a turning
    point, where the Newton steps do not settle.
    """

    def __init__(self, message: str, bracket=(0.0, 0.0)):
        super().__init__(message)
        self.bracket = tuple(bracket)


class PoleError(ModelError):
    """The driven linear system is singular at the requested energy."""


class StabilityError(ModelError):
    """Integrator step size violates the stability precondition."""


class InstabilityError(ModelError):
    """Anomalous coupling closes the pair-excitation gap."""


class SignRegimeError(ModelError):
    """Drive energy above the renormalized dark level; the real-coefficient
    pair transformation is only defined below it."""


class SectorSizeError(ModelError):
    """Requested excitation sector would take more memory than its budget."""
