"""Exception types shared across the package."""

from __future__ import annotations

from .records import record


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


@record
class Finding:
    """One problem a check found in the config: ``code`` names the rule,
    ``path`` the place (a tree path or a question id, empty for none)."""

    code: str
    path: str
    message: str
    severity: str = "error"  # "error" | "warning"


class ResponseError(ProcompError):
    """Responses or a questionnaire schema failed validation; ``report``
    holds the findings, whose count ends the message."""

    def __init__(self, message: str, report: tuple[Finding, ...] = ()):
        self.report = report
        super().__init__(f"{message} ({len(report)} issue(s))" if report else message)


class ScoringError(ProcompError):
    """Score aggregation could not be completed (unscored criterion, bad weights...)."""
