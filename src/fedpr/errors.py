"""Exception types shared across the simulator."""


class DimensionError(ValueError):
    """Tensor/parameter shapes do not line up for the requested operation."""


class LabelError(ValueError):
    """A class label is outside the valid [0, num_classes) range."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value where one is not allowed."""


class DataFormatError(ValueError):
    """An input file, payload or array does not match its expected format."""


class TruncatedFileError(DataFormatError):
    """An input file ended before its declared payload was complete."""


class ConfigError(ValueError):
    """An experiment configuration value is missing, unknown, or out of range."""


class DivergenceError(RuntimeError):
    """Local training produced a non-finite loss."""


class EmptyPrototypesError(RuntimeError):
    """Nearest-prototype inference was requested with no prototypes available."""
