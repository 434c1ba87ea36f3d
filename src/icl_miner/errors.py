"""Error hierarchy shared across the pipeline.

Each class carries the process exit code the CLI maps it to.
"""

from __future__ import annotations


class MinerError(Exception):
    """Base class for all pipeline errors."""

    exit_code = 1


class ConfigError(MinerError):
    """Invalid configuration or command-line usage."""

    exit_code = 2


class BackendError(MinerError):
    """LLM / embedding backend failure (transport, fixture miss, bad payload)."""

    exit_code = 3


class BackendRejected(BackendError):
    """The backend refused the request itself (HTTP 4xx); a retry cannot help."""


class DataError(MinerError):
    """Corpus or artifact data problem (missing file, misalignment, empty input)."""

    exit_code = 4
