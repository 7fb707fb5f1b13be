"""Exception types shared across the package."""


class ShlmError(Exception):
    """Base class for every error this package raises on purpose."""


# tensor core
class ShapeMismatchError(ShlmError):
    pass


class DomainError(ShlmError):
    pass


class NotScalarError(ShlmError):
    pass


class EmptyTapeError(ShlmError):
    pass


class ZeroVectorError(ShlmError):
    pass


class NonFiniteError(ShlmError):
    pass


# model / text / checkpoints
class InvalidTokenIdError(ShlmError):
    pass


class SequenceTooLongError(ShlmError):
    pass


class MaskShapeMismatchError(ShlmError):
    pass


class EmptyCorpusError(ShlmError):
    pass


class EmptyStreamError(ShlmError):
    pass


class UnknownTemplateError(ShlmError):
    pass


class FormatError(ShlmError):
    pass


class ConfigMismatchError(ShlmError):
    pass


# criteria
class MissingCaptureError(ShlmError):
    pass


class ContextualUnsupportedError(ShlmError):
    pass


class BatchTooSmallError(ShlmError):
    pass


class SingleClassError(ShlmError):
    pass


# pruning
class BudgetExceedsUnitsError(ShlmError):
    pass


class TooManyUnitsError(ShlmError):
    pass


# predictors
class DatasetTooSmallError(ShlmError):
    pass


class FeatureShapeMismatchError(ShlmError):
    pass


class EmptyPromptError(ShlmError):
    pass


class EmptyHeldoutError(ShlmError):
    pass


class NoCoveredUnitsError(ShlmError):
    pass


# analytics
class LengthMismatchError(ShlmError):
    pass


class DegenerateError(ShlmError):
    pass


# CLI configuration problems; the CLI maps these to exit code 2
class ConfigError(ShlmError):
    pass
