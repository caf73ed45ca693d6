"""Exception types shared across the package."""


class SekgError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(SekgError):
    """Unknown concept or relation name, or an ill-formed schema lookup."""


class GraphError(SekgError):
    """Illegal graph mutation: duplicate ids, conformance violations, frozen graph."""


class DatasetError(SekgError):
    """Dataset text could not be parsed or validated.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RuleError(SekgError):
    """Ill-formed inference rule: a RETURN other than two distinct variables,
    or a body that gives a head variable a concept the head relation refuses."""


class QueryParseError(SekgError):
    """Query text rejected by the tokenizer, parser, or schema check.

    ``offset`` indexes the failure in the query string, counted in
    characters, not bytes, and ``expected`` names the token kinds or
    identifiers that would have been accepted at that point.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        detail = f"at offset {offset}: {message}"
        if expected:
            detail += f" (expected: {', '.join(sorted(expected))})"
        super().__init__(detail)
