"""Uniform chat-model boundary: a live OpenAI-compatible endpoint or a
deterministic scripted transcript, plus the reply parsers shared by the
adaptation, navigation, and task pipelines.

Scripted mode replays canned responses keyed by (template id, call ordinal),
which makes every downstream pipeline bit-reproducible. Every exchange is
appended to a transcript log that can itself be replayed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError, GatewayError, ParseError, SchemaError, ScriptExhaustedError
from .locomotion import (
    GAIT_NAMES,
    GAITS,
    GLOBAL_RANGES,
    PROMPT_PARAM_ORDER,
    BehaviorParams,
    level_from_name,
)

log = logging.getLogger(__name__)

ENV_ENDPOINT = "QUADKIT_LLM_ENDPOINT"
ENV_MODEL = "QUADKIT_LLM_MODEL"
ENV_API_KEY = "QUADKIT_LLM_API_KEY"

# Sampling defaults: diversity for the 3-candidate voting calls, determinism
# for parsing-critical single calls.
SAMPLING_TEMPERATURE = 0.7
PARSE_TEMPERATURE = 0.0


@dataclass(frozen=True)
class ChatRequest:
    template_id: str
    system: str
    user: str
    temperature: float = PARSE_TEMPERATURE
    n_samples: int = 1

    def digest(self) -> str:
        payload = f"{self.system}\x1f{self.user}\x1f{self.temperature}\x1f{self.n_samples}"
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


class ScriptedProvider:
    """Replays canned responses per template id, in file order.

    Exhausting a template's entries raises, which catches drift between the
    transcript and the code consuming it.
    """

    name = "scripted"

    def __init__(self, entries, model: str = "scripted"):
        self.model = model
        self._queues: dict = {}
        for entry in entries:
            self._queues.setdefault(entry["template_id"], []).append(entry["response"])
        self._consumed: dict = {}

    @classmethod
    def from_file(cls, path) -> "ScriptedProvider":
        """Read a transcript; a malformed line raises ConfigError naming the file and line."""
        entries = []
        with open(path) as fh:
            for n, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except ValueError as err:
                    raise ConfigError(f"transcript {path}, line {n}: {err}") from None
                if not isinstance(entry, dict) or not {"template_id", "response"} <= entry.keys():
                    raise ConfigError(f"transcript {path}, line {n}: expected an object with "
                                      "'template_id' and 'response'")
                entries.append(entry)
        return cls(entries, model=str(path))

    def complete(self, request: ChatRequest) -> list:
        out = []
        queue = self._queues.get(request.template_id, [])
        for _ in range(request.n_samples):
            ordinal = self._consumed.get(request.template_id, 0)
            if not queue:
                raise ScriptExhaustedError(request.template_id, ordinal)
            out.append(queue.pop(0))
            self._consumed[request.template_id] = ordinal + 1
        return out


class LiveProvider:
    """OpenAI-compatible chat-completions endpoint, configured via environment."""

    name = "live"

    def __init__(self, endpoint: str, model: str, api_key: str,
                 timeout: float = 60.0, max_retries: int = 2):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries

    @classmethod
    def from_env(cls) -> "LiveProvider":
        missing = [v for v in (ENV_ENDPOINT, ENV_MODEL, ENV_API_KEY) if not os.environ.get(v)]
        if missing:
            raise ConfigError(f"live provider requires env vars: {', '.join(missing)}")
        return cls(os.environ[ENV_ENDPOINT], os.environ[ENV_MODEL], os.environ[ENV_API_KEY])

    def complete(self, request: ChatRequest) -> list:
        import requests

        messages = []
        if request.system:
            messages.append({"role": "system", "content": request.system})
        messages.append({"role": "user", "content": request.user})
        body = {
            "model": self.model,
            "messages": messages,
            "temperature": request.temperature,
            "n": request.n_samples,
        }
        url = f"{self.endpoint}/chat/completions"
        headers = {"Authorization": f"Bearer {self.api_key}"}
        last_err = None
        for attempt in range(self.max_retries + 1):
            try:
                resp = requests.post(url, json=body, headers=headers, timeout=self.timeout)
                if resp.status_code >= 500:
                    raise GatewayError(f"server error {resp.status_code}")
                if resp.status_code != 200:
                    raise GatewayError(f"request failed ({resp.status_code}): {resp.text[:200]}")
                choices = resp.json().get("choices", [])
                texts = [c["message"]["content"] for c in choices]
                # Providers without n-sample support: top up with single calls.
                while len(texts) < request.n_samples:
                    texts.extend(self.complete(
                        ChatRequest(request.template_id, request.system, request.user,
                                    request.temperature, 1)))
                return texts[: request.n_samples]
            except (GatewayError, OSError) as err:
                last_err = err
                if attempt < self.max_retries:
                    time.sleep(0.5 * 2 ** attempt)
        raise GatewayError(f"live completion failed after retries: {last_err}")


class Gateway:
    """Provider wrapper that logs every exchange to an append-only transcript."""

    def __init__(self, provider, log_path=None):
        self.provider = provider
        self.log_path = log_path
        self._ordinals: dict = {}

    def complete(self, request: ChatRequest) -> list:
        responses = self.provider.complete(request)
        if len(responses) != request.n_samples:
            raise GatewayError(
                f"provider returned {len(responses)} responses, expected {request.n_samples}")
        if self.log_path:
            with open(self.log_path, "a") as fh:
                for text in responses:
                    ordinal = self._ordinals.get(request.template_id, 0)
                    self._ordinals[request.template_id] = ordinal + 1
                    fh.write(json.dumps({
                        "template_id": request.template_id,
                        "ordinal": ordinal,
                        "request_hash": request.digest(),
                        "response": text,
                    }) + "\n")
        return responses


def load_template(name: str) -> str:
    """Load a prompt template text asset by stem name."""
    ref = resources.files("quadkit.assets.prompts").joinpath(f"{name}.txt")
    return ref.read_text()


# ---------------------------------------------------------------------------
# Reply parsers


def parse_levels(text: str) -> dict:
    """Extract the answers A1..A6 of a level-location reply.

    Returns a dict mapping parameter names to Level ordinals plus ``gait``.
    Question order: body height, stepping frequency, foot swing height,
    body pitch, foot stance width, gait.
    """
    answers = {}
    for match in re.finditer(r"\bA([1-6])\s*[:.]\s*([A-Za-z][A-Za-z ]*)", text):
        idx = int(match.group(1))
        answers.setdefault(idx, match.group(2).strip().rstrip(".").strip())
    out = {}
    for i, parameter in enumerate(PROMPT_PARAM_ORDER, start=1):
        if i not in answers:
            raise ParseError(f"missing answer A{i} ({parameter})", what=f"A{i}")
        try:
            out[parameter] = level_from_name(parameter, answers[i])
        except ValueError as err:
            raise ParseError(f"A{i}: {err}", what=f"A{i}") from None
    if 6 not in answers:
        raise ParseError("missing answer A6 (gait)", what="A6")
    gait = answers[6].lower().strip()
    if gait not in GAITS:
        raise ParseError(f"A6: unknown gait '{answers[6]}'", what="A6")
    out["gait"] = gait
    return out


_NUMBER = r"(-?\d+(?:\.\d+)?)"
_PARAM_PATTERNS = {
    "body_height": r"body\s*height",
    "step_frequency": r"step(?:ping)?\s*frequency",
    "swing_height": r"(?:foot\s*)?swing\s*height",
    "body_pitch": r"(?:body\s*)?pitch",
    "stance_width": r"(?:foot\s*)?stance\s*width",
}


def parse_numeric_values(text: str) -> dict:
    """Extract one labeled number per continuous parameter."""
    out = {}
    for name, pattern in _PARAM_PATTERNS.items():
        match = re.search(pattern + r"[^-\d]*" + _NUMBER, text, re.IGNORECASE)
        if not match:
            raise ParseError(f"could not extract a value for {name}", what=name)
        out[name] = float(match.group(1))
    return out


def parse_numeric_params(text: str) -> BehaviorParams:
    """Parse a direct numeric-parameter reply into BehaviorParams.

    Out-of-range values are clamped into the global ranges (with a warning);
    the gait name must be one of the four presets.
    """
    values = parse_numeric_values(text)
    for name, v in values.items():
        lo, hi = GLOBAL_RANGES[name]
        clamped = min(max(v, lo), hi)
        if clamped != v:
            log.warning("clamped %s from %s to %s", name, v, clamped)
        values[name] = clamped
    gait_match = re.search(r"gait[^A-Za-z]*([A-Za-z]+)", text, re.IGNORECASE)
    if not gait_match:
        raise ParseError("could not extract a gait name", what="gait")
    gait = gait_match.group(1).lower()
    if gait not in GAIT_NAMES:
        raise ParseError(f"'{gait}' is not one of {', '.join(GAIT_NAMES)}", what="gait")
    return BehaviorParams(gait=GAITS[gait], **values)


def extract_json_block(text: str, opener: str = "{", closer: str = "}") -> str:
    """Return the first balanced JSON object (or array) embedded in text."""
    start = text.find(opener)
    if start < 0:
        raise ParseError(f"no '{opener}' found in reply", what="json")
    depth = 0
    in_string = False
    escape = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == opener:
            depth += 1
        elif ch == closer:
            depth -= 1
            if depth == 0:
                return text[start:i + 1]
    raise ParseError("unbalanced JSON in reply", what="json")


def parse_cost_json(text: str, mode: str = "binary"):
    """Parse a cost-assignment reply: target object, obstacles, terrain triples.

    ``mode`` is "binary" ({0, 1} costs, the prompt schema) or "continuous"
    ([0, 1] costs). Schema violations are itemized in the raised error.
    """
    from .navigation import CostAssignment, TerrainCost

    block = extract_json_block(text)
    try:
        data = json.loads(block)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}", what="json") from None
    issues = []
    target = data.get("target_object")
    if not isinstance(target, str) or not target:
        issues.append("target_object: missing or not a string")
    obstacles = data.get("obstacles", [])
    if not isinstance(obstacles, list) or any(not isinstance(o, str) for o in obstacles):
        issues.append("obstacles: must be a list of strings")
    terrain_entries = []
    raw_terrain = data.get("terrain", [])
    if not isinstance(raw_terrain, list):
        issues.append("terrain: must be a list")
        raw_terrain = []
    for i, entry in enumerate(raw_terrain):
        if not isinstance(entry, dict):
            issues.append(f"terrain[{i}]: not an object")
            continue
        etype = entry.get("type")
        if not isinstance(etype, str) or not etype:
            issues.append(f"terrain[{i}]: missing 'type'")
        if "cost" not in entry:
            issues.append(f"terrain[{i}]: missing 'cost'")
            cost = None
        else:
            cost = entry["cost"]
            if mode == "binary":
                if cost not in (0, 1):
                    issues.append(f"terrain[{i}]: cost {cost} outside {{0, 1}}")
            else:
                if not isinstance(cost, (int, float)) or not (0.0 <= float(cost) <= 1.0):
                    issues.append(f"terrain[{i}]: cost {cost} outside [0, 1]")
        if "gait" not in entry:
            issues.append(f"terrain[{i}]: missing 'gait'")
            gait = None
        else:
            gait = entry["gait"]
            if gait not in (0, 1):
                issues.append(f"terrain[{i}]: gait {gait} outside {{0, 1}}")
        if etype and cost is not None and gait is not None:
            terrain_entries.append(TerrainCost(type=etype, cost=float(cost), gait=int(gait)))
    if issues:
        raise SchemaError(issues)
    return CostAssignment(target_object=target, obstacles=tuple(obstacles),
                          terrain=tuple(terrain_entries))


def retry_reprompt(request: ChatRequest, error: Exception) -> ChatRequest:
    """Build the single error-explaining retry for a failed parse."""
    user = (f"{request.user}\n\nYour previous reply could not be parsed: {error}. "
            "Answer again using exactly the required format.")
    return ChatRequest(request.template_id, request.system, user,
                       request.temperature, request.n_samples)


def complete_and_parse(gateway: Gateway, request: ChatRequest, parser):
    """Issue a request and parse each response, retrying once on parse failure."""
    responses = gateway.complete(request)
    try:
        return [parser(r) for r in responses]
    except ParseError as err:
        responses = gateway.complete(retry_reprompt(request, err))
        return [parser(r) for r in responses]
