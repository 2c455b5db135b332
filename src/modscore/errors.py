"""Exception hierarchy shared across the toolkit.

An error with its own ``__init__`` defines ``__reduce__`` so that pickling,
as a worker process does to hand an error back, rebuilds it from the
arguments that ``__init__`` takes rather than from its message.
"""


class ModscoreError(Exception):
    """Base class for all toolkit-specific errors."""


class EncodingError(ModscoreError):
    """Input bytes are not valid UTF-8, or declare another encoding."""


class UnsupportedConstruct(ModscoreError):
    """A syntax kind outside the set the counters model.

    Carries the offending kind name so callers never miscount silently.
    """

    def __init__(self, kind: str, message: str = ""):
        self.kind = kind
        super().__init__(message or f"unsupported construct: {kind}")

    def __reduce__(self):
        return type(self), (self.kind, str(self))


class InvalidThreshold(ModscoreError):
    """Module-size threshold must be a positive integer."""


class EmptyInput(ModscoreError):
    """An operation that needs at least one element received none."""


class RecursionUnsupported(ModscoreError):
    """The unit's call graph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("recursive call chain: " + " -> ".join(self.cycle))

    def __reduce__(self):
        return type(self), (self.cycle,)


class DynamicCallUnsupported(ModscoreError):
    """A function is used in a way that cannot be resolved statically."""


class ExternalNameCollision(ModscoreError):
    """Inlining would make a free name capture a different binding."""


class TransformUnsupported(ModscoreError):
    """The rewriter cannot preserve semantics for this construct."""


class SandboxUnavailable(ModscoreError):
    """Process isolation could not be established; never degrade silently."""


class DomainError(ModscoreError):
    """Arguments violate a documented numeric precondition."""


class TemplateError(ModscoreError):
    """A prompt template is missing a required placeholder."""

    def __init__(self, placeholder: str):
        self.placeholder = placeholder
        super().__init__(f"template is missing placeholder {placeholder}")

    def __reduce__(self):
        return type(self), (self.placeholder,)


class InsufficientBin(ModscoreError):
    """A sampling bin holds fewer items than requested."""


class DegenerateInput(ModscoreError):
    """Correlation input too short or with zero variance."""


class InvalidLogProb(ModscoreError):
    """A token log-probability is positive."""


class EmptyCategory(ModscoreError):
    """A perplexity summary was requested for no records."""


class ConfigError(ModscoreError):
    """A config file, flag or environment setting is unknown, ill-typed or out of range."""


class CorpusFormatError(ModscoreError):
    """A corpus or generations file does not match the documented schema."""
