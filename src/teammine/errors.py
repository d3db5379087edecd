"""Exception types shared across the pipeline."""


class TeammineError(Exception):
    """Base class for all errors raised by this package."""


class IngestError(TeammineError):
    """Fatal problem while reading an input file (malformed line, duplicate id)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(TeammineError):
    """Invalid pipeline or generator configuration."""


class InfeasibleConfigError(ConfigError):
    """Synthetic corpus configuration that cannot satisfy its own guarantees."""


class InternalInconsistencyError(TeammineError):
    """Structural lemma violated; indicates a bug upstream of the caller."""


class MissingArtifactError(TeammineError):
    """A pipeline stage was run before its prerequisite stage."""


class StaleCacheError(TeammineError):
    """An artifact on disk no longer matches the manifest that produced it."""


class UnknownTeamError(TeammineError):
    """Requested team id does not exist in the team table."""
