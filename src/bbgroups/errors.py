"""The syntax-error type and the rules the input formats share."""

import json
import re


class ParseError(ValueError):
    """Syntax error in a text input (graph, word, or presentation file).

    Carries an optional 1-based line/column so callers can point at the
    offending token.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        elif column is not None:
            message = f"column {column}: {message}"
        super().__init__(message)


def reserved_chars(name, extra=""):
    """The characters of ``name`` the text formats reserve, sorted: whitespace
    (``str.isspace``, where tokens and lines split), ``#`` (comments), ``^``
    (exponents) and ``extra``."""
    return sorted({c for c in name if c.isspace() or c in "#^" + extra})


def tokens(text):
    """``[(token, column), ...]``: the whitespace-separated tokens of one
    line, columns 1-based."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", text)]


def lex(text):
    """``(line, tokens)`` per line with tokens; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        found = tokens(raw.split("#", 1)[0])
        if found:
            yield lineno, found


def parse_text_or_json(text, parse_json, parse_text):
    """JSON if the text starts with '{' (after whitespace), else the line format."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_text(text)


def json_object(data, keys, what):
    """Decode JSON text (or take a decoded value): an object with only ``keys``."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, exc.lineno, exc.colno) from None
        except RecursionError:
            raise ParseError("JSON value nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = set(data) - set(keys)
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r} in {what}")
    return data
