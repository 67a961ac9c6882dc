"""Exception hierarchy shared across the package."""


class ConfigurationError(ValueError):
    """Invalid protocol or field configuration."""


class FieldMismatchError(ConfigurationError):
    """Operands live in different prime fields."""


class EncodingOverflowError(ConfigurationError):
    """A real value falls outside the encodable fixed-point range."""

    def __init__(self, index, value, limit):
        self.index = index
        self.value = value
        self.limit = limit
        super().__init__(
            f"coordinate {index} with value {value!r} exceeds encodable "
            f"range |x| < {limit!r}; use fewer fractional bits or a larger modulus"
        )


class NonFiniteValueError(ConfigurationError):
    """A NaN or infinite value was given to the fixed-point codec."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"coordinate {index} is not finite ({value!r})")


class ThresholdError(ValueError):
    """Fewer shares than the reconstruction threshold t were supplied."""


class SkipRoundError(RuntimeError):
    """Participation fell below t; watermark embedding is skipped this round."""


class ProtocolAbortError(RuntimeError):
    """The round cannot proceed (overflow bound violated, bad submission)."""


class DegenerateModelError(ValueError):
    """A zero-norm or otherwise unusable model was passed to verification."""


class FingerprintMismatchError(ValueError):
    """Calibration table does not match the suspect model's configuration."""


class NumericalError(RuntimeError):
    """Non-finite loss or diverging training."""
