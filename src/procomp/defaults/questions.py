"""The default questionnaires: 49 modeler and 24 reader questions.

Rows are (id, text, kind, metric, polarity); kind "tf" is true/false,
"l5"/"l7" are Likert scales with that many levels. Reversed polarity means
stronger agreement signals a comprehension problem. Exactly one metric
(the modeler's domain knowledge) is probed by two questions; every other
questionnaire-sourced metric maps to one question.
"""

from __future__ import annotations

_MODELER_QUESTIONS = (
    # Process Modeling Language
    ("mq-01", "How familiar are you with the modeling language used for this model?",
     "l5", "m-lang-familiarity", "+"),
    ("mq-02", "Do you know the meaning of every notation symbol you used in the model?",
     "tf", "m-lang-notation-knowledge", "+"),
    ("mq-03", "How confident are you in the rules for combining constructs (which connections are allowed)?",
     "l5", "m-lang-grammar-knowledge", "+"),
    ("mq-04", "Could every aspect of the process be expressed directly with the constructs of the language?",
     "tf", "m-lang-expressiveness", "+"),
    ("mq-05", "How easy was it for you to learn the modeling language?",
     "l5", "m-lang-learnability", "+"),
    ("mq-06", "How well does the language fit the kind of process you documented?",
     "l5", "m-lang-suitability", "+"),
    ("mq-07", "Have you received formal training for the modeling language?",
     "tf", "m-lang-training", "+"),
    ("mq-08", "How often did you have to consult reference material about the language while modeling?",
     "l5", "m-lang-reference-use", "-"),
    # Process Modeling Tool
    ("mq-09", "How would you rate the overall usability of the modeling tool?",
     "l5", "m-tool-usability", "+"),
    ("mq-10", "Does the tool provide different views on the model (overview, filtered views)?",
     "tf", "m-tool-views", "+"),
    ("mq-11", "Does the tool check the model for syntax errors while you are modeling?",
     "tf", "m-tool-syntax-support", "+"),
    ("mq-12", "How much does the tool support you in arranging and laying out the model?",
     "l5", "m-tool-layout-support", "+"),
    ("mq-13", "Does the tool manage model versions in a shared repository?",
     "tf", "m-tool-repository", "+"),
    ("mq-14", "How well does the tool support working on models together with others?",
     "l5", "m-tool-collaboration", "+"),
    ("mq-15", "How helpful is the documentation or built-in help of the tool?",
     "l5", "m-tool-documentation", "+"),
    ("mq-16", "Can models be exported in exchange formats understood by other tools?",
     "tf", "m-tool-export", "+"),
    # Information
    ("mq-17", "How complete was the process information you gathered before and during modeling?",
     "l5", "m-info-completeness", "+"),
    ("mq-18", "How confident are you that the gathered process information is correct?",
     "l5", "m-info-correctness", "+"),
    ("mq-19", "How would you rate the availability of process information while modeling?",
     "l5", "m-info-availability", "+"),
    ("mq-20", "How would you rate the methods available for retrieving process information "
              "(interviews, documents, observation)?",
     "l5", "m-info-method", "+"),
    ("mq-21", "Was the process information up to date at the time of modeling?",
     "tf", "m-info-timeliness", "+"),
    ("mq-22", "Did you have access to the people who know the process best?",
     "tf", "m-info-sources", "+"),
    ("mq-23", "How often did you encounter contradictory information about the process?",
     "l5", "m-info-consistency", "-"),
    ("mq-24", "Did the available information match the level of detail you needed for the model?",
     "tf", "m-info-granularity", "+"),
    ("mq-25", "Was the gathered process information validated with domain experts?",
     "tf", "m-info-validation", "+"),
    # Errors
    ("mq-26", "How many notation-rule violations did you have to fix during modeling?",
     "l5", "m-err-syntactic", "-"),
    ("mq-27", "How confident are you that the model is free of logical errors "
              "(deadlocks, impossible paths)?",
     "l5", "m-err-semantic", "+"),
    ("mq-28", "Has the model been reviewed by at least one other person?",
     "tf", "m-err-review", "+"),
    ("mq-29", "Did you run an automated check on the final model?",
     "tf", "m-err-syntax-check", "+"),
    ("mq-30", "How consistently did you apply the agreed modeling conventions "
              "(naming, layout, notation subset)?",
     "l5", "m-err-pragmatic", "+"),
    ("mq-31", "How much rework was necessary after the first complete version of the model?",
     "l5", "m-err-rework", "-"),
    ("mq-32", "How confident are you that the final model contains no errors?",
     "l5", "m-err-confidence", "+"),
    # Person
    ("mq-33", "How much experience do you have in process modeling?",
     "l5", "m-person-experience", "+"),
    ("mq-34", "How well do you know the business domain of the modeled process?",
     "l5", "m-person-domain-knowledge", "+"),
    ("mq-35", "Have you worked in or closely with the modeled process yourself?",
     "tf", "m-person-domain-knowledge", "+"),
    ("mq-36", "Have you received formal education or certification in process management?",
     "tf", "m-person-education", "+"),
    ("mq-37", "How frequently do you create process models?",
     "l5", "m-person-frequency", "+"),
    ("mq-38", "How many process models have you created in total?",
     "l5", "m-person-models-created", "+"),
    ("mq-39", "How motivated were you while creating this model?",
     "l5", "m-person-motivation", "+"),
    ("mq-40", "How much were you under time pressure while creating the model?",
     "l5", "m-person-time", "-"),
    ("mq-41", "Were you involved in designing or executing the real process before modeling it?",
     "tf", "m-person-process-involvement", "+"),
    ("mq-42", "How confident are you in your process modeling skills in general?",
     "l5", "m-person-confidence", "+"),
    # Process Modeling Guidelines
    ("mq-43", "Are organization-specific modeling guidelines available for your work?",
     "tf", "m-guide-enterprise", "+"),
    ("mq-44", "Do you know published modeling guidelines (rules for model size and structure)?",
     "tf", "m-guide-academic", "+"),
    ("mq-45", "How consistently did you follow naming conventions for activities and events?",
     "l5", "m-guide-naming", "+"),
    ("mq-46", "Did you decompose the model when it grew beyond a manageable size?",
     "tf", "m-guide-size", "+"),
    ("mq-47", "How strictly did you follow structured-modeling rules "
              "(matching split and join types)?",
     "l5", "m-guide-structure", "+"),
    ("mq-48", "Have you been trained in the modeling guidelines that apply to your organization?",
     "tf", "m-guide-training", "+"),
    ("mq-49", "Was guideline compliance checked before the model was released?",
     "tf", "m-guide-compliance-check", "+"),
)

_READER_QUESTIONS = (
    # Process Modeling Language
    ("rq-01", "How familiar are you with the modeling language used in this model?",
     "l5", "r-lang-familiarity", "+"),
    ("rq-02", "Could you interpret every symbol in the model without looking it up?",
     "tf", "r-lang-symbol-clarity", "+"),
    ("rq-03", "Have you received training for reading models in this language?",
     "tf", "r-lang-notation-training", "+"),
    ("rq-04", "How often were you unsure what a construct in the model meant?",
     "l5", "r-lang-ambiguity", "-"),
    # Medium
    ("rq-05", "How suitable was the medium (paper printout, screen) for reading the model?",
     "l5", "r-medium-suitability", "+"),
    ("rq-06", "How legible were labels and symbols at the size the model was presented?",
     "l5", "r-medium-legibility", "+"),
    ("rq-07", "How easy was it to navigate to the parts of the model you needed?",
     "l5", "r-medium-navigation", "+"),
    ("rq-08", "Could you highlight or annotate the model while reading it?",
     "tf", "r-medium-annotations", "+"),
    # Information
    ("rq-09", "Did the model contain all the information you needed to understand the process?",
     "tf", "r-info-sufficiency", "+"),
    ("rq-10", "How much of the shown information was relevant for understanding the process?",
     "l5", "r-info-relevance", "+"),
    ("rq-11", "How clearly did the model communicate what happens in the process?",
     "l5", "r-info-clarity", "+"),
    ("rq-12", "Do you trust the model to reflect the current state of the process?",
     "tf", "r-info-trust", "+"),
    # Person
    ("rq-13", "How much experience do you have in reading process models?",
     "l5", "r-person-experience", "+"),
    ("rq-14", "How well do you know the business domain of the process?",
     "l5", "r-person-domain-knowledge", "+"),
    ("rq-15", "How well do you know the notation used in the model?",
     "l5", "r-person-notation-knowledge", "+"),
    ("rq-16", "How motivated were you while working through the model?",
     "l5", "r-person-motivation", "+"),
    # Level of Detail
    ("rq-17", "Was the level of detail appropriate for understanding the process?",
     "l5", "r-detail-granularity", "+"),
    ("rq-18", "Did the model hide details you would have needed?",
     "tf", "r-detail-abstraction-fit", "-"),
    ("rq-19", "How uniform was the level of detail across different parts of the model?",
     "l5", "r-detail-uniformity", "+"),
    ("rq-20", "Were all steps you expected in the process actually shown in the model?",
     "tf", "r-detail-completeness", "+"),
    # Comprehension Questions
    ("rq-21", "How well could you determine the order in which activities are performed?",
     "l5", "r-comp-control-flow", "+"),
    ("rq-22", "How well could you tell under which conditions the process takes different paths?",
     "l5", "r-comp-decisions", "+"),
    ("rq-23", "How well could you identify which activities may run in parallel?",
     "l5", "r-comp-concurrency", "+"),
    ("rq-24", "Overall, how well do you feel you understood the process after reading the model?",
     "l5", "r-comp-overall", "+"),
)


def _question_documents(rows) -> list[dict]:
    documents = []
    for qid, text, kind, metric, polarity in rows:
        qdoc: dict = {"id": qid, "text": text, "metric": metric}
        if kind == "tf":
            qdoc["kind"] = "true-false"
        else:
            qdoc["kind"] = "likert"
            qdoc["levels"] = int(kind[1:])
        if polarity == "-":
            qdoc["polarity"] = "reversed"
        documents.append(qdoc)
    return documents


def _questionnaire_document(perspective: str, rows) -> dict:
    return {"version": "1", "perspective": perspective, "questions": _question_documents(rows)}


def modeler_questionnaire_document() -> dict:
    return _questionnaire_document("modeler", _MODELER_QUESTIONS)


def reader_questionnaire_document() -> dict:
    return _questionnaire_document("reader", _READER_QUESTIONS)
