"""The syntax-error type and the rules the input formats share."""

import json
import math
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


def parse_text_or_json(text, parse_json, parse_text):
    """JSON if the text starts with '{' (after whitespace), else the line format."""
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_text(text)


def _unique_keys(pairs):
    if len(data := dict(pairs)) < len(pairs):
        raise ValueError("repeated key in a JSON object")
    return data


def _finite(text):
    if not math.isfinite(value := float(text)):
        raise ValueError(f"number {text} is not finite")
    return value


def _int(text):
    if len(text.lstrip("-")) > 4300:  # int()'s default limit, as one message everywhere
        raise ValueError("integer of more than 4300 digits")
    return int(text)


def strict_json(text):
    """``json.loads`` that also rejects non-finite numbers, repeated keys
    and integers of more than 4300 digits, each as a ParseError."""
    try:
        return json.loads(
            text, object_pairs_hook=_unique_keys, parse_constant=_finite, parse_float=_finite, parse_int=_int
        )
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("JSON value nested too deeply") from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def json_object(data, keys, what):
    """Decode strict JSON text (or take a decoded value): an object with only ``keys``."""
    if isinstance(data, str):
        data = strict_json(data)
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = set(data) - set(keys)
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r} in {what}")
    return data
