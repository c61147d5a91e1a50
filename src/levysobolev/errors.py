"""Exception hierarchy. One class per failure mode the library reports."""


class LevySobolevError(Exception):
    """Base class for all library errors."""


class InvalidParams(LevySobolevError):
    """Family parameters violate a documented constraint."""


class EvalOverflow(LevySobolevError):
    """Intermediate magnitudes left the representable range."""


class QuadratureFailure(LevySobolevError):
    """Requested quadrature tolerance could not be met."""


class DivergentIntegral(LevySobolevError):
    """An integrability precondition fails numerically."""


class FitUnstable(LevySobolevError):
    """Log-log regression too poor to trust (R^2 below threshold)."""


class Inconsistent(LevySobolevError):
    """Two independent estimators disagree beyond tolerance."""


class DegenerateSymbol(LevySobolevError):
    """Symbol vanishes on the whole fit grid."""


class NonpositiveRealPart(LevySobolevError):
    """Re A <= 0 on the fit range; Garding slope undefined."""


class UnknownFamily(LevySobolevError):
    """Family not in the analytic catalog."""


class TailUnbounded(LevySobolevError):
    """No Garding fit available to certify an integral tail."""


class MissingField(LevySobolevError):
    """Report lacks a field required by the requested check."""


class GridMismatch(LevySobolevError):
    """Spectral fields do not share a grid."""


class UnstableScheme(LevySobolevError):
    """Time-stepping amplification factor exceeds one for some mode."""


class TailTooFat(LevySobolevError):
    """Truncated Fourier inversion tail exceeds the accuracy budget."""


class ConfigError(LevySobolevError):
    """CLI configuration does not parse or validate (exit code 2)."""


class IoError(LevySobolevError):
    """Output file could not be written."""
