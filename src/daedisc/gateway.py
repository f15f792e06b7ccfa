"""Prompt assembly and pluggable skeleton generators.

One call, ``build_prompt``, renders the prompt of either loop as a
deterministic function of the loop's task contract (role, completion rules,
variable descriptions, requirement instructions), the sampled in-context
examples (worst first) and an empty target stub.
Generated completions are free text; ``parse_completion`` extracts the first
fenced ``equations`` block and an optional fenced ``requirements`` JSON block
and never raises, whatever bytes it is fed.

Two backends speak the same interface: an HTTP client for any
chat-completions endpoint (OpenAI wire format, API key from an environment
variable) and a scripted mock that replays a JSON file of completion batches
in order, which keeps engine runs byte-reproducible.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from .dsl import FUNCTIONS, MAX_EXPONENT
from .fitting import Requirement, ScoredSkeleton

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

EQUATIONS_TAG = "equations"
REQUIREMENTS_TAG = "requirements"

_FENCE_RE = re.compile(r"```[ \t]*([A-Za-z0-9_-]*)[ \t]*\r?\n(.*?)```", re.DOTALL)


class BackendUnavailable(RuntimeError):
    """The generator produced nothing despite retries.

    ``permanent`` marks failures no retry can fix (an exhausted mock script),
    so the retry loop gives up immediately.
    """

    def __init__(self, message: str, permanent: bool = False):
        super().__init__(message)
        self.permanent = permanent


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    n_b: int = 4
    temperature: float = 1.2

    def __post_init__(self):
        if self.n_b < 1:
            raise ValueError("n_b must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class Completion:
    skeleton_text: str
    requirements: tuple[Requirement, ...]
    raw: str


_GRAMMAR_RULES = f"""\
Write one equation per line and nothing else inside the block.
Differential form:  d<state>/dt = <expression>
Algebraic form:     <name> = <expression>
Expressions may use + - * / ^, parentheses, numeric literals, the unary
functions {' '.join(FUNCTIONS)}, the variables listed below, and
trainable parameter placeholders p0, p1, p2, ... for every unknown constant.
Exponents must be integer literals between -{MAX_EXPONENT} and {MAX_EXPONENT}.  Any other syntax or any
name not listed below fails to compile and wastes the attempt."""


# kind -> (role sentence, what the completion calls its lines, stub of one target)
_CONTRACTS = {
    "de": ("You model power-system component dynamics. Propose the structure of "
           "the state differential equations that generated the measured data.",
           "equations", "d{}/dt = "),
    "ae": ("You model power-system algebraic constraints. Propose explicit "
           "algebraic relations expressing each target variable from states "
           "and admitted variables.",
           "relations", "{} = "),
}


def build_prompt(kind: str, state_names: Sequence[str], entries: Sequence,
                 examples: Sequence[ScoredSkeleton], target_names: Sequence[str]) -> str:
    """Deterministic prompt text of the differential ("de") or algebraic ("ae")
    loop; entries are the admitted (name, unit, description, kind) variables,
    and examples must arrive ordered worst first."""
    role, lines, stub = _CONTRACTS[kind]
    library = "\n".join(f"- {e.name} [{e.unit}] ({e.kind}): {e.description}"
                        for e in entries) or "(no admitted variables yet)"
    parts = [
        role,
        "",
        "Completion rules:",
        _GRAMMAR_RULES,
        "",
        f"States (always available): {', '.join(state_names)}",
        f"Admitted variables:\n{library}",
        "",
        f"If the {lines} need signals that are not admitted yet, declare them in a "
        'fenced block tagged "requirements" holding a JSON array of '
        '{"name": ..., "justification": ...} objects.',
    ]
    for example in examples:
        parts += [
            "",
            f"Example (score = {example.score:.6g}):",
            f"```{EQUATIONS_TAG}",
            example.canonical,
            "```",
        ]
    parts += [
        "",
        "Complete the following system. Respond with one fenced block tagged "
        f'"{EQUATIONS_TAG}" containing exactly these left-hand sides:',
        f"```{EQUATIONS_TAG}",
        "\n".join(stub.format(name) for name in target_names),
        "```",
    ]
    return "\n".join(parts)


def _parse_requirements(body: str) -> tuple[Requirement, ...]:
    try:
        data = json.loads(body)
    except (json.JSONDecodeError, RecursionError):
        logger.debug("requirements block is not valid JSON; ignoring")
        return ()
    if not isinstance(data, list):
        logger.debug("requirements block is not a JSON array; ignoring")
        return ()
    out: list[Requirement] = []
    for item in data:
        if not isinstance(item, dict):
            continue
        name = item.get("name")
        if not isinstance(name, str) or not name.strip():
            continue
        justification = item.get("justification")
        kind_hint = item.get("kind")
        out.append(Requirement(
            name=name.strip(),
            justification=justification.strip() if isinstance(justification, str) else "",
            kind_hint=kind_hint.strip() if isinstance(kind_hint, str) else ""))
    return tuple(out)


def parse_completion(raw: str) -> Completion:
    """Total extraction: surrounding prose tolerated, nothing ever raises."""
    if not isinstance(raw, str):
        raw = str(raw)
    skeleton_text = ""
    requirements: tuple[Requirement, ...] = ()
    saw_requirements = False
    for match in _FENCE_RE.finditer(raw):
        tag = match.group(1).lower()
        body = match.group(2).strip()
        if tag in (REQUIREMENTS_TAG, "json"):
            if not saw_requirements:
                requirements = _parse_requirements(body)
                saw_requirements = True
            continue
        if not skeleton_text:
            skeleton_text = body
    return Completion(skeleton_text=skeleton_text, requirements=requirements, raw=raw)


class GeneratorBackend(Protocol):
    def complete(self, request: GenerationRequest) -> list[str]:
        """Raw completion texts; raises BackendUnavailable on failure."""


class MockBackend:
    """Replays scripted completion batches in order; single-threaded."""

    def __init__(self, batches: Sequence[Sequence[str]]):
        self._batches = [list(batch) for batch in batches]
        self._cursor = 0

    @classmethod
    def from_script(cls, path: str | Path) -> "MockBackend":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, list) or not all(
                isinstance(b, list) and all(isinstance(c, str) for c in b) for b in data):
            raise ValueError("mock script must be a JSON array of batches of strings")
        return cls(data)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._batches)

    def complete(self, request: GenerationRequest) -> list[str]:
        if self.exhausted:
            raise BackendUnavailable("mock script exhausted", permanent=True)
        batch = self._batches[self._cursor]
        self._cursor += 1
        return list(batch)


class HttpBackend:
    """Chat-completions client: OpenAI wire format against any base URL.

    ``requests`` is imported here, on construction, so that a process that
    never talks to a live endpoint never loads the HTTP stack.
    """

    def __init__(self, base_url: str, model: str,
                 api_key_env: str = "OPENAI_API_KEY", timeout: float = 60.0,
                 max_tokens: int = 1024, session: requests.Session | None = None):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_tokens = max_tokens
        import requests

        self._session = session or requests.Session()
        self._transport_errors = (requests.RequestException, KeyError, TypeError, ValueError)

    def complete(self, request: GenerationRequest) -> list[str]:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "n": request.n_b,
            "max_tokens": self.max_tokens,
        }
        headers = {}
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:
            response = self._session.post(
                f"{self.base_url}/chat/completions", json=payload,
                headers=headers, timeout=self.timeout)
            response.raise_for_status()
            data = response.json()
            texts = [choice["message"]["content"] for choice in data["choices"]]
        except self._transport_errors as exc:
            raise BackendUnavailable(str(exc)) from exc
        return [t for t in texts if isinstance(t, str)]


GENERATE_ATTEMPTS = 3
GENERATE_BACKOFF_S = 0.5


def generate(request: GenerationRequest, backend: GeneratorBackend,
             sleep: Callable[[float], None] = time.sleep) -> list[Completion]:
    """Up to n_b parsed completions.

    A transport failure or an empty answer is retried up to
    ``GENERATE_ATTEMPTS`` times in all, sleeping ``GENERATE_BACKOFF_S``
    doubled per attempt in between; a permanent failure is not retried.
    ``sleep`` is the clock seam tests replace.
    """
    last_error: Exception | None = None
    for attempt in range(GENERATE_ATTEMPTS):
        if attempt:  # a retry
            sleep(GENERATE_BACKOFF_S * 2.0 ** (attempt - 1))
        try:
            texts = backend.complete(request)
        except BackendUnavailable as exc:
            last_error = exc
            if exc.permanent:
                break
            continue
        completions = [parse_completion(t) for t in texts[: request.n_b]]
        if completions:
            return completions
        last_error = BackendUnavailable("backend returned zero completions")
    raise BackendUnavailable(str(last_error) if last_error else "no completions")
