"""Run configuration: one JSON file drives a whole discovery run.

Schema (all keys optional unless noted):

    {
      "benchmark": "swing2",            // model id, required by the CLI
      "seed": 0,
      "islands": 10,
      "n_b": 4,                          // completions requested per iteration
      "temperature": 1.2,                // generator sampling temperature
      "epsilon": 0.01,                   // stagnation threshold on score gains
      "gamma": 0.01,                     // termination threshold on -score
      "window": 3,                       // consecutive iterations for both rules
      "top_k": 3,                        // candidates mined for requirements
      "de_max_iterations": 50,
      "ae_max_iterations": 50,
      "max_seconds": null,               // wall-clock guard, null = off
      "fit": {"steps": 2000, "learning_rate": 0.05, "restarts": 3, "seed": 0},
      "sampler": {"tau_cluster": 0.2, "tau_length": 0.2, "examples_per_prompt": 2},
      "generator": {
        "kind": "mock" | "http",
        "script": "mock_script.json",    // mock: JSON array of batches of strings
        "base_url": "https://...",       // http: chat-completions endpoint base
        "model": "model-name",
        "api_key_env": "OPENAI_API_KEY",
        "timeout": 60.0,
        "max_tokens": 1024
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .archive import SamplerConfig
from .fitting import FitConfig
from .gateway import GeneratorBackend, HttpBackend, MockBackend


class ConfigError(ValueError):
    pass


def _build(cls, data: dict, where: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


@dataclass(frozen=True)
class GeneratorConfig:
    kind: str = "mock"
    script: str | None = None
    base_url: str = ""
    model: str = ""
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 60.0
    max_tokens: int = 1024

    def __post_init__(self):
        if self.kind not in ("mock", "http"):
            raise ValueError(f"generator kind must be 'mock' or 'http', got {self.kind!r}")
        if self.kind == "mock" and not self.script:
            raise ValueError("mock generator needs a script path")
        if self.kind == "http" and not self.base_url:
            raise ValueError("http generator needs a base_url")

    def build(self, base_dir: str | Path = ".") -> GeneratorBackend:
        if self.kind == "mock":
            script = Path(self.script)
            if not script.is_absolute():
                script = Path(base_dir) / script
            return MockBackend.from_script(script)
        return HttpBackend(base_url=self.base_url, model=self.model,
                           api_key_env=self.api_key_env, timeout=self.timeout,
                           max_tokens=self.max_tokens)


@dataclass(frozen=True)
class RunConfig:
    benchmark: str | None = None
    seed: int = 0
    islands: int = 10
    n_b: int = 4
    temperature: float = 1.2
    epsilon: float = 0.01
    gamma: float = 0.01
    window: int = 3
    top_k: int = 3
    de_max_iterations: int = 50
    ae_max_iterations: int = 50
    max_seconds: float | None = None
    fit: FitConfig = field(default_factory=FitConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    generator: GeneratorConfig = field(default_factory=lambda: GeneratorConfig(
        kind="mock", script="mock_script.json"))

    def __post_init__(self):
        if self.islands < 1:
            raise ValueError("islands must be >= 1")
        if self.n_b < 1:
            raise ValueError("n_b must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.epsilon <= 0 or self.gamma <= 0:
            raise ValueError("epsilon and gamma must be positive")
        if self.gamma > self.epsilon:
            raise ValueError("gamma must not exceed epsilon")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.de_max_iterations < 0 or self.ae_max_iterations < 0:
            raise ValueError("iteration budgets must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        parts = {}
        if "fit" in data:
            parts["fit"] = _build(FitConfig, data.pop("fit"), "fit")
        if "sampler" in data:
            parts["sampler"] = _build(SamplerConfig, data.pop("sampler"), "sampler")
        if "generator" in data:
            parts["generator"] = _build(GeneratorConfig, data.pop("generator"), "generator")
        cfg = _build(RunConfig, {**data, **parts}, "run config")
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def load_scenarios(path: str | Path) -> dict:
    """Scenario file for gen-data: {"train": {...}, "test": {...}}."""
    from .benchmarks import ScenarioConfig

    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not {"train", "test"} <= set(data):
        raise ConfigError("scenario file must hold 'train' and 'test' objects")
    try:
        return {name: ScenarioConfig.from_dict(data[name]) for name in ("train", "test")}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc
