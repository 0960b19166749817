"""Shipped default configuration: metric catalog, questionnaires, languages.

Everything here is plain data meant to be dumped to files (see the `init`
CLI command), edited, and loaded back; nothing in the engine depends on
these exact values.
"""

from __future__ import annotations

from ..ett import EvaluationTheoryTree, load_ett
from ..languages import LanguageDescriptor, load_descriptor
from ..questionnaire import QuestionnaireSchema, load_schema
from .descriptors import language_documents as default_language_documents  # keyed by file slug
from .ett_catalog import ett_document as default_ett_document
from .questions import modeler_questionnaire_document, reader_questionnaire_document

__all__ = [
    "default_ett",
    "default_ett_document",
    "default_modeler_schema",
    "default_reader_schema",
    "default_language_documents",
    "builtin_language_registry",
]


def default_ett() -> EvaluationTheoryTree:
    return load_ett(default_ett_document())


def default_modeler_schema() -> QuestionnaireSchema:
    return load_schema(modeler_questionnaire_document())


def default_reader_schema() -> QuestionnaireSchema:
    return load_schema(reader_questionnaire_document())


def builtin_language_registry() -> tuple[LanguageDescriptor, ...]:
    return tuple(load_descriptor(doc) for doc in default_language_documents().values())
