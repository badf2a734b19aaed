"""Exception types shared across the package."""


class EmosidError(Exception):
    """Base class for all package errors."""


class AudioFormatError(EmosidError):
    """Malformed RIFF/WAVE container."""


class UnsupportedCodecError(EmosidError):
    """WAV encoding other than 16-bit PCM or 32-bit IEEE float."""


class EmptyAudioError(EmosidError):
    """Zero-length data chunk or empty clip where samples are required."""


class RateMismatchError(EmosidError):
    """Two clips that must share a sample rate do not."""


class DegenerateNoiseError(EmosidError):
    """Interference signal with zero power cannot be scaled to a target ratio."""


class ConfigError(EmosidError):
    """Invalid configuration value (bad FFT size, band edges, sizes...)."""


class DimensionError(EmosidError):
    """Sizes that must agree do not (features and model, noise and clip)."""


class InsufficientDataError(EmosidError):
    """Fewer data points than mixture components."""


class EmptyUtteranceError(EmosidError):
    """An utterance with no frames was scored."""


class NetworkInputError(EmosidError, ValueError):
    """Malformed or non-finite network input, or training labels out of range."""


class ContainerError(EmosidError):
    """Corrupt or truncated serialized model/feature container."""


class VersionError(ContainerError):
    """Serialized container written by an incompatible format version."""


class DivergenceError(EmosidError):
    """Training loss became non-finite."""


class ValidationError(EmosidError):
    """A manifest or a model failed validation; message lists offending entries."""
