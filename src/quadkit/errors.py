"""Exception types shared across the toolkit."""


class QuadkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(QuadkitError):
    """Invalid or missing configuration (files, env vars, value ranges)."""


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
