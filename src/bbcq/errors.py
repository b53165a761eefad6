"""Exception hierarchy with stable machine-readable categories.

The CLI reports any failure as a single line ``error:<category>: <message>``
on stderr; the category strings defined here are part of that contract and
must stay stable across releases.
"""

from __future__ import annotations


class BBCQError(Exception):
    """Base class for all library errors."""

    category = "internal"


class DimensionError(BBCQError):
    """Array or model shapes do not line up."""

    category = "dimension"


class ContractError(BBCQError):
    """An API precondition was violated (unknown site, non-scalar loss, ...)."""

    category = "contract"


class ParameterError(BBCQError):
    """A numeric parameter is out of its documented domain."""

    category = "parameter"


class DegenerateScaleError(ParameterError):
    """A quantizer scale collapsed below the 1e-12 floor."""

    category = "degenerate-scale"


class DegenerateRangeError(ParameterError):
    """An operand range has x_max <= x_min, so no scale grid exists."""

    category = "degenerate-range"


class LabelIndexError(BBCQError):
    """A class label lies outside [0, num_classes)."""

    category = "index"


class ConfigError(BBCQError):
    """Invalid run configuration (CLI flags or CalibConfig fields)."""

    category = "config"


class FormatError(BBCQError):
    """Base class for artifact-file decoding failures."""

    category = "format"


class MagicError(FormatError):
    """File does not start with the expected container magic."""

    category = "bad-magic"


class VersionError(FormatError):
    """Container magic matched but the format version is unsupported."""

    category = "bad-version"


class LengthError(FormatError):
    """File is cut inside its header, or its payload is shorter or longer
    than the manifest declares."""

    category = "length-mismatch"


class ManifestError(FormatError):
    """Manifest JSON is unreadable or inconsistent with the declared spec."""

    category = "manifest-mismatch"


class NonFiniteError(FormatError):
    """A container tensor, an in-memory input, a softmax score array or a
    candidate metric holds NaN or infinity."""

    category = "non-finite"
