"""Exception hierarchy shared across the fitting library."""


class CountFitError(ValueError):
    """Base class for all library-specific errors."""


class DomainError(CountFitError):
    """Argument outside the mathematical domain of a special function."""


class InvalidModelError(CountFitError):
    """Model parameters violate the distribution's invariants."""


class ParameterBoundError(InvalidModelError):
    """Parameter outside its admissible interval; message reports the interval."""

    def __init__(self, message: str, lo: float, hi: float) -> None:
        super().__init__(message)
        self.admissible = (lo, hi)


class EstimationError(CountFitError):
    """An estimator cannot produce a valid fit for the given sample."""


class AllZerosError(EstimationError):
    """Every observation is zero; all families degenerate to a point mass."""


class UnderDispersedError(EstimationError):
    """Sample variance does not exceed the mean; no finite NB shape root."""


class DegenerateBinningError(CountFitError):
    """Tail pooling collapsed the histogram below the minimum bin count."""


class InputFormatError(CountFitError):
    """Malformed frequency file or model spec string."""
