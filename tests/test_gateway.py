import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daedisc.benchmarks import CatalogEntry
from daedisc.dsl import FUNCTIONS, MAX_EXPONENT, SymbolScope, parse
from daedisc.fitting import ScoredSkeleton
from daedisc.gateway import (
    BackendUnavailable,
    GenerationRequest,
    HttpBackend,
    MockBackend,
    build_prompt,
    generate,
    parse_completion,
)

SCOPE = SymbolScope(states=("delta", "omega"))


def scored(text, score):
    sk = parse(text, SCOPE, ["delta"], kind="de")
    params = np.zeros(sk.n_params)
    params.setflags(write=False)
    return ScoredSkeleton(skeleton=sk, params=params, score=score)


ENTRIES = (CatalogEntry("P_e", "pu", "electrical power", "algebraic"),)


def test_prompt_without_examples_has_contract_and_stub():
    prompt = build_prompt("de", ("delta", "omega"), (), [], ["delta", "omega"])
    assert "ddelta/dt = " in prompt
    assert "domega/dt = " in prompt
    assert "Example" not in prompt
    assert "p0, p1, p2" in prompt


@pytest.mark.parametrize("kind,targets", [("de", ["delta"]), ("ae", ["P_e"])])
def test_prompt_states_the_dsl_limits(kind, targets):
    prompt = build_prompt(kind, ("delta", "omega"), ENTRIES, [], targets)
    functions_line = next(line for line in prompt.splitlines()
                          if line.startswith("functions "))
    assert functions_line.split(",")[0].split()[1:] == list(FUNCTIONS)
    assert f"between -{MAX_EXPONENT} and {MAX_EXPONENT}." in prompt


def test_prompt_examples_in_given_order_with_scores():
    worse = scored("ddelta/dt = p0", -2.0)
    better = scored("ddelta/dt = p0*omega", -1.0)
    prompt = build_prompt("de", ("delta", "omega"), ENTRIES, [worse, better], ["delta"])
    assert prompt.index(worse.canonical) < prompt.index(better.canonical)
    assert "score = -2" in prompt and "score = -1" in prompt
    assert "P_e [pu]" in prompt


def test_prompt_deterministic():
    examples = [scored("ddelta/dt = p0", -2.0)]
    assert build_prompt("de", ("delta", "omega"), ENTRIES, examples, ["delta"]) == build_prompt(
        "de", ("delta", "omega"), ENTRIES, examples, ["delta"])


def test_ae_contract_role_and_requirement_text():
    prompt = build_prompt("ae", ("delta", "omega"), ENTRIES, [], ["P_e"])
    assert prompt.startswith(
        "You model power-system algebraic constraints. Propose explicit algebraic "
        "relations expressing each target variable from states and admitted variables.")
    assert "If the relations need signals that are not admitted yet, declare them" in prompt
    assert prompt.endswith("```equations\nP_e = \n```")


def test_parse_completion_both_blocks():
    raw = (
        "Here is my proposal.\n"
        "```equations\nddelta/dt = p0*(omega - 1)\n```\n"
        "And the signals I still need:\n"
        "```requirements\n"
        '[{"name": "i_d", "justification": "stator current"}]\n'
        "```\nthanks"
    )
    completion = parse_completion(raw)
    assert completion.skeleton_text == "ddelta/dt = p0*(omega - 1)"
    assert len(completion.requirements) == 1
    assert completion.requirements[0].name == "i_d"
    assert completion.requirements[0].justification == "stator current"


def test_parse_completion_prose_only():
    completion = parse_completion("I am not sure what to write.")
    assert completion.skeleton_text == ""
    assert completion.requirements == ()


def test_parse_completion_untagged_block_and_bad_json():
    raw = "```\nddelta/dt = p0\n```\n```requirements\nnot json at all\n```"
    completion = parse_completion(raw)
    assert completion.skeleton_text == "ddelta/dt = p0"
    assert completion.requirements == ()


def test_parse_completion_requirements_tolerates_partial_entries():
    raw = ('```requirements\n'
           '[{"name": "P_e"}, {"noname": 1}, "just a string", '
           '{"name": "", "justification": "x"}, {"name": "v_f", "kind": "input"}]\n'
           '```')
    completion = parse_completion(raw)
    names = [r.name for r in completion.requirements]
    assert names == ["P_e", "v_f"]
    assert completion.requirements[1].kind_hint == "input"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=400))
def test_parse_completion_never_raises(raw):
    completion = parse_completion(raw)
    assert isinstance(completion.skeleton_text, str)


def test_mock_backend_scripted_batches(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([["A", "B"], ["C"]]))
    backend = MockBackend.from_script(script)
    req = GenerationRequest(prompt="x", n_b=4)
    assert [c.raw for c in generate(req, backend, sleep=lambda s: None)] == ["A", "B"]
    assert [c.raw for c in generate(req, backend, sleep=lambda s: None)] == ["C"]
    with pytest.raises(BackendUnavailable):
        generate(req, backend, sleep=lambda s: None)


def test_generate_truncates_to_n_b():
    backend = MockBackend([["A", "B", "C"]])
    req = GenerationRequest(prompt="x", n_b=2)
    out = generate(req, backend, sleep=lambda s: None)
    assert [c.raw for c in out] == ["A", "B"]


def test_generate_retries_then_succeeds():
    calls = []

    class Flaky:
        def __init__(self):
            self.n = 0

        def complete(self, request):
            self.n += 1
            if self.n < 3:
                raise BackendUnavailable("transient")
            return ["ok"]

    slept = []
    out = generate(GenerationRequest(prompt="x"), Flaky(), sleep=slept.append)
    assert [c.raw for c in out] == ["ok"]
    assert slept == [0.5, 1.0]


def test_generate_sleeps_before_each_retry_only():
    # empty answers are retried, backing off before each retry; a permanent
    # failure (an exhausted script) is not retried and sleeps not at all
    slept = []
    with pytest.raises(BackendUnavailable, match="zero completions"):
        generate(GenerationRequest(prompt="x"), MockBackend([[], [], []]), sleep=slept.append)
    assert slept == [0.5, 1.0]
    slept.clear()
    with pytest.raises(BackendUnavailable, match="exhausted"):
        generate(GenerationRequest(prompt="x"), MockBackend([]), sleep=slept.append)
    assert slept == []

def test_http_backend_wire_format(monkeypatch):
    seen = {}

    class FakeResponse:
        def raise_for_status(self):
            pass

        def json(self):
            return {"choices": [{"message": {"content": "hello"}},
                                {"message": {"content": "world"}}]}

    class FakeSession:
        def post(self, url, json=None, headers=None, timeout=None):
            seen.update(url=url, payload=json, headers=headers, timeout=timeout)
            return FakeResponse()

    monkeypatch.setenv("TEST_API_KEY", "sekret")
    backend = HttpBackend("http://example.test/v1", "test-model",
                          api_key_env="TEST_API_KEY", timeout=30.0, max_tokens=512,
                          session=FakeSession())
    req = GenerationRequest(prompt="the prompt", n_b=2, temperature=1.2)
    texts = backend.complete(req)
    assert texts == ["hello", "world"]
    assert seen["url"] == "http://example.test/v1/chat/completions"
    assert seen["payload"]["model"] == "test-model"
    assert seen["payload"]["n"] == 2
    assert seen["payload"]["temperature"] == 1.2
    assert seen["payload"]["max_tokens"] == 512
    assert seen["payload"]["messages"][-1]["content"] == "the prompt"
    assert seen["headers"]["Authorization"] == "Bearer sekret"
    assert seen["timeout"] == 30.0


def test_http_backend_failure_is_backend_unavailable():
    class BrokenSession:
        def post(self, *args, **kwargs):
            import requests

            raise requests.ConnectionError("down")

    backend = HttpBackend("http://example.test", "m", session=BrokenSession())
    with pytest.raises(BackendUnavailable):
        backend.complete(GenerationRequest(prompt="x"))


def test_http_backend_builds_its_own_session_offline():
    import requests

    backend = HttpBackend("not-a-url", "m")
    assert isinstance(backend._session, requests.Session)
    # requests rejects the URL (MissingSchema) before opening any connection
    with pytest.raises(BackendUnavailable, match="No scheme supplied"):
        backend.complete(GenerationRequest(prompt="x"))


def test_malformed_completion_flows_to_rejection():
    # no fenced block: empty skeleton text, rejected downstream by the parser
    completion = parse_completion("plain text")
    from daedisc.dsl import ParseError

    with pytest.raises(ParseError):
        parse(completion.skeleton_text, SCOPE, ["delta"], kind="de")
