"""Exception types shared across the package.

``NumericalError`` subclasses indicate a numerical failure (exit code 2 in
the CLI); everything else is a usage, data, or configuration problem (exit
code 1).
"""


class FeatPriorError(Exception):
    """Base class for all errors raised by featprior."""


class NumericalError(FeatPriorError):
    """A computation failed numerically (singular matrix, divergence, ...)."""


# -- linear algebra ---------------------------------------------------------

class DimensionMismatch(FeatPriorError):
    """Operand shapes do not conform."""


class NotSymmetric(FeatPriorError):
    """Matrix is asymmetric beyond the accepted tolerance."""


class NotPositiveDefinite(NumericalError):
    """Cholesky pivot <= 0; usually means missing jitter upstream."""


# -- network ----------------------------------------------------------------

class NonFiniteActivation(NumericalError):
    """A forward pass produced NaN or infinity."""


class NonFiniteGradient(NumericalError):
    """An optimizer step received NaN or infinite gradients."""


class LabelOutOfRange(FeatPriorError):
    """A class label lies outside [0, class_count)."""


class LayerOutOfRange(FeatPriorError):
    """A layer index does not exist in the network."""


# -- GP prior ---------------------------------------------------------------

class FactorizationFailed(NumericalError):
    """Kernel could not be factored even after jitter escalation."""


class BatchMismatch(FeatPriorError):
    """Student and teacher feature batches do not describe the same inputs."""


# -- training ---------------------------------------------------------------

class DivergedTraining(NumericalError):
    """Training loss became non-finite."""


class AllLayersFrozen(FeatPriorError):
    """No trainable parameters remain after freezing."""


class EmptyExpertSet(FeatPriorError):
    """Combining experts requires at least one expert prior."""


# -- data / files -----------------------------------------------------------

class BadMagic(FeatPriorError):
    """File does not start with the expected magic number."""


class TruncatedFile(FeatPriorError):
    """File ended before the declared payload."""


class CountMismatch(FeatPriorError):
    """Image and label files disagree on the example count."""


class RaggedRows(FeatPriorError):
    """CSV rows have differing lengths."""


class NonNumericCell(FeatPriorError):
    """CSV cell could not be parsed as a number."""


class UnknownLabelColumn(FeatPriorError):
    """Requested label column is not in the CSV header."""


class BatchTooSmall(FeatPriorError):
    """Batch size below 2; a Gram matrix over one point is degenerate."""


class FingerprintMismatch(BatchMismatch):
    """Feature cache was built from different data or a different teacher.

    A BatchMismatch whose row counts agree: the fingerprints tell the
    inputs apart."""


class CorruptFile(FeatPriorError):
    """Binary file violates its format."""


class ConfigError(FeatPriorError):
    """Experiment configuration is invalid."""
