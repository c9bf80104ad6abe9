"""Exception types shared across the toolkit, and the one reader of input files.

Every input file (config, scene, transcript, scenario, manual params) is UTF-8
JSON, read by ``read_json`` (one value) or ``read_json_lines`` (one value per
non-blank line). Whatever its bytes, a file gives a value or a ``ConfigError``
naming the file, and the line of a line-delimited one. ``json_object`` and
``is_finite`` are the checks the loaders' parse functions share.
"""

import json
import math


class QuadkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(QuadkitError):
    """Invalid or missing configuration (files, env vars, value ranges)."""


# What decoding or parsing a malformed input raises: ValueError covers
# JSONDecodeError, UnicodeDecodeError and the integer digit limit, and
# RecursionError a too deeply nested value; a parse function's lookups and
# conversions raise the others.
_MALFORMED = (ValueError, RecursionError, KeyError, TypeError, OverflowError)


def _open(what: str, path, opener=open):
    try:
        return opener(path, "rb")
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from None


def _parsed(parse, data: bytes, where: str):
    """``parse`` of the JSON value of UTF-8 ``data``; a malformed value raises
    ConfigError starting with ``where``."""
    try:
        return parse(json.loads(data.decode("utf-8")))
    except _MALFORMED as err:
        reason = f"missing field {err}" if isinstance(err, KeyError) else err
        raise ConfigError(f"{where}: {reason}") from None


def read_json(what: str, path, parse, opener=open):
    """``parse`` of the JSON value of the file at ``path``, opened by
    ``opener(path, "rb")``. Errors read ``cannot read {what} {path}: ...`` or
    ``{what} {path}: ...``."""
    with _open(what, path, opener) as fh:
        data = fh.read()
    return _parsed(parse, data, f"{what} {path}")


def read_json_lines(what: str, path, parse) -> list:
    """``parse`` of each non-blank line's JSON value in the file at ``path``,
    streamed in file order. Errors read ``cannot read {what} {path}: ...`` or
    ``{what} {path}, line N: ...``, N counting every line from 1."""
    with _open(what, path) as fh:
        return [_parsed(parse, line, f"{what} {path}, line {n}")
                for n, line in enumerate(fh, start=1) if line.strip()]


def json_object(value, keys) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``; otherwise
    ValueError naming the first other key."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, not {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown key '{key}'; valid: {', '.join(keys)}")
    return value


def is_finite(value) -> bool:
    """Whether a number is finite as a float; an int too large for one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class ParseError(QuadkitError):
    """A model reply could not be parsed; ``what`` names the offending field."""

    def __init__(self, message: str, what: str = ""):
        super().__init__(message)
        self.what = what


class SchemaError(ParseError):
    """Structured reply parsed but violated its schema; ``issues`` lists them."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues), what=self.issues[0] if self.issues else "")


class ScriptExhaustedError(QuadkitError):
    """A scripted transcript ran out of entries for a template."""

    def __init__(self, template_id: str, ordinal: int):
        super().__init__(
            f"scripted transcript exhausted for template '{template_id}' at ordinal {ordinal}"
        )
        self.template_id = template_id
        self.ordinal = ordinal


class TranscriptMismatchError(QuadkitError):
    """A scripted transcript entry was recorded for a different request."""

    def __init__(self, template_id: str, ordinal: int, recorded: str, actual: str):
        super().__init__(
            f"scripted transcript entry for template '{template_id}' at ordinal {ordinal} "
            f"was recorded for request {recorded}, not {actual}"
        )
        self.template_id = template_id
        self.ordinal = ordinal


class GatewayError(QuadkitError):
    """Transport or auth failure talking to a live chat endpoint."""


class UnreachableError(QuadkitError):
    """Requested start or goal is not reachable on the current cost map."""


class ExplorationComplete(QuadkitError):
    """No frontier remains: the reachable map is fully explored."""
