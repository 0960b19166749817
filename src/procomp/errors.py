"""Exception types shared across the package."""

from __future__ import annotations


class ProcompError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ProcompError):
    """A configuration document (evaluation tree, schema, descriptor) is invalid.

    ``path`` points into the offending document, e.g. ``criteria[2].metrics[0].rank``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ModelParseError(ProcompError):
    """A process model document could not be parsed into a graph.

    ``context`` names the element or location that triggered the error.
    """

    def __init__(self, message: str, context: str = ""):
        self.context = context
        super().__init__(f"{message} ({context})" if context else message)


class ExtractionError(ProcompError):
    """A model-derived metric has no registered extractor."""

    def __init__(self, metric_ids: list[str]):
        self.metric_ids = list(metric_ids)
        super().__init__("unextractable metric(s): " + ", ".join(self.metric_ids))

    def __reduce__(self):
        # unpickling calls the class with ``args``, here the formatted message
        return (ExtractionError, (self.metric_ids,))


class ResponseError(ProcompError):
    """A response set failed validation; carries the validation report."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class ScoringError(ProcompError):
    """Score aggregation could not be completed (unscored criterion, bad weights...)."""
