"""The one typed reader of config documents.

``read_field`` reads every field of the evaluation tree, the questionnaire
schemas, the response sets and the language descriptors; ``read_document``
names the file in any ConfigError.
"""

from __future__ import annotations

import codecs
import json
import math

import pytest

from procomp.defaults import (default_ett_document, default_language_documents, default_modeler_schema,
                              modeler_questionnaire_document)
from procomp.documents import read_document, read_field
from procomp.errors import ConfigError
from procomp.ett import Perspective, build_ett, load_ett_file
from procomp.languages import load_descriptor_file
from procomp.questionnaire import ResponseSet, load_responses_file, load_schema_file, serialize_responses


@pytest.mark.parametrize("kind, value, message", [
    (str, 7, "expected a string, got 7"),
    (str, None, "expected a string, got None"),
    (int, True, "expected an integer, got True"),
    (int, 2.0, "expected an integer, got 2.0"),
    (float, False, "expected a finite number, got False"),
    (float, "1", "expected a finite number, got '1'"),
    (float, math.nan, "expected a finite number, got nan"),
    (float, 10 ** 400, f"expected a finite number, got {10 ** 400}"),
    (list, {}, "expected a list, got {}"),
    (dict, [1], "expected an object, got [1]"),
    (Perspective, {"a": 1}, "unknown value {'a': 1}, expected one of: modeler, reader"),
])
def test_a_field_of_the_wrong_type_is_reported_at_its_path(kind, value, message):
    with pytest.raises(ConfigError) as caught:
        read_field({"f": value}, "f", kind, "doc[0]")
    assert (caught.value.path, str(caught.value)) == ("doc[0].f", f"doc[0].f: {message}")


def test_a_field_of_the_right_type_is_returned_as_read():
    document = {"s": "x", "i": 3, "f": 3, "l": [], "d": {}, "e": "reader", "n": None}
    got = [read_field(document, key, kind) for key, kind in
           [("s", str), ("i", int), ("f", float), ("l", list), ("d", dict), ("e", Perspective)]]
    assert got == ["x", 3, 3.0, [], {}, Perspective.READER]
    assert type(got[2]) is float
    # an absent field is its default; a null one too, where the default is None
    assert read_field(document, "absent", str, default="") == ""
    assert read_field(document, "n", str, default=None) is None
    with pytest.raises(ConfigError, match=r"^n: expected a string, got None$"):
        read_field(document, "n", str, default="")
    with pytest.raises(ConfigError, match=r"^doc: missing field 'absent'$"):
        read_field(document, "absent", str, "doc")
    with pytest.raises(ConfigError, match=r"^doc: expected an object, got list$"):
        read_field([], "s", str, "doc")


def test_read_document_names_the_file(tmp_path):
    path = tmp_path / "ett.json"
    path.write_text(json.dumps({"version": {"a": 1}}))
    with pytest.raises(ConfigError) as caught:
        read_document(path, build_ett)
    assert str(caught.value) == f"{path}: version: expected a string, got {{'a': 1}}"
    path.write_text("[1, NaN]")
    with pytest.raises(ConfigError, match=r": malformed JSON document: NaN is not a JSON number"):
        read_document(path, build_ett)


def _responses_document() -> dict:
    schema = default_modeler_schema()
    return serialize_responses(ResponseSet("m-1", schema.version, {q.id: 1 for q in schema.questions}))


@pytest.mark.parametrize("load, document", [
    (load_ett_file, default_ett_document),
    (load_schema_file, modeler_questionnaire_document),
    (load_responses_file, _responses_document),
    (load_descriptor_file, lambda: next(iter(default_language_documents().values()))),
], ids=["tree", "schema", "response-set", "descriptor"])
def test_a_document_with_a_byte_order_mark_reads_as_one_without(tmp_path, load, document):
    # editors on Windows save "UTF-8 with BOM"; the survey CSV reader takes such a file too
    text = json.dumps(document(), indent=2)
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(codecs.BOM_UTF8)
    assert load(marked) == load(plain)
