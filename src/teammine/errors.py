"""Exception types shared across the pipeline.

Only faults of the input, the configuration or the out dir raise; a team pair
breaking an overlap lemma is a value of ``overlaps.classify_overlap``, counted
in ``overlap_anomalies.csv``."""


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


class MissingArtifactError(TeammineError):
    """A pipeline stage was run before its prerequisite stage."""


class StaleCacheError(TeammineError):
    """An artifact on disk no longer matches the manifest that produced it."""


class UnknownTeamError(TeammineError):
    """Requested team id does not exist in the team table."""
