"""Discovery of differential-algebraic dynamic models from trajectory data.

A generator (an LLM endpoint or a scripted mock) proposes equation skeletons
in a small expression language; candidates that compile are fitted by Adam
and scored, archived in score-clustered islands that supply in-context
examples, and stagnation triggers the admission of new algebraic/input
variables.  A sequential second loop discovers explicit algebraic relations
for the variables the best differential system uses.  A sparse-regression
baseline (STLSQ) and trajectory-replay metrics complete the comparison
pipeline; built-in single-machine benchmarks supply ground truth.
"""

from .archive import Archive, SamplerConfig, make_linear_seed
from .benchmarks import (
    Disturbance,
    ScenarioConfig,
    get_model,
    model_ids,
    simulate,
    solve_equilibrium,
)
from .config import GeneratorConfig, RunConfig
from .dataset import TrajectoryDataset, export_dataset, import_dataset, make_dataset
from .dsl import ParseError, Skeleton, SymbolScope, code_length, parse, serialize
from .engine import (
    DiscoveryEngine,
    VariableLibrary,
    check_trigger,
    extend_variables,
)
from .evaluator import SampleBatch, evaluate, gradient_check
from .fitting import FitConfig, Requirement, ScoredSkeleton, fit_and_score, score_of
from .gateway import (
    Completion,
    GenerationRequest,
    HttpBackend,
    MockBackend,
    build_prompt,
    generate,
    parse_completion,
)
from .metrics import build_report, r_squared
from .sindy import (
    LibraryConfig,
    SkeletonModel,
    build_library,
    fit_baseline,
    simulate_identified,
    stlsq,
)

__version__ = "0.1.0"
