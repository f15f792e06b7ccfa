"""The command sequence of one pass of each workload, and its output checks.

A pass drives ``daedisc`` subcommands in-process through ``daedisc.cli.main``
on the inputs ``inputs.py`` generated.  Each command's output is reduced to
a summary (model text and parameters, scores, run-log shape, replay
metrics) that the checks compare:

* against what the seed's candidate mix implies, for any seed;
* against the first pass of the same run (the pipeline is deterministic);
* against the stored reference, for the default seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import inputs

DEFAULT_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-6
# replay of a machine's own equations with its true parameters; the error
# left is the linear interpolation of recorded signals at RK4 half steps
ANALYTIC_MAPE_LIMIT_PCT = 0.5
REJECTED_KINDS = ("prose_reject", "out_of_scope")
ORDER5_ADMISSIONS = {4: ["P_e", "i_d", "i_q", "P_m", "v_f"], 5: ["V_g"], 6: ["theta_g"]}
ORDER5_AE_TARGETS = ["P_e", "i_d", "i_q"]
SWING_STATES = ("delta", "omega")
ORDER5_STATES = ("delta", "omega", "e_q_t", "e_d_t", "e_d_st")


@dataclass(frozen=True)
class Command:
    key: str  # unique within a pass
    kind: str  # "discover" | "evaluate" | "baseline"
    args: tuple[str, ...]
    output: Path  # model.json for discover/baseline, the report for evaluate
    headline: bool = False  # its replay is the workload's reported outcome
    analytic: bool = False  # replays a true-parameter fixture


def commands(workload: str, work: Path, out: Path) -> list[Command]:
    data = work / "data"
    ins = work / "inputs"
    cmds: list[Command] = []

    def discover(machine):
        cmds.append(Command("discover", "discover",
                            ("discover", "--config", str(ins / "run.json"),
                             "--data", str(data / machine), "--out", str(out / "run")),
                            out / "run" / "model.json"))

    def evaluate(key, model, machine, use_ae=False, headline=False, analytic=False):
        report = out / f"{key}.report.json"
        args = ["evaluate", "--model", str(model), "--data", str(data / machine),
                "--out", str(report)]
        if use_ae:
            args.append("--use-ae")
        cmds.append(Command(f"evaluate:{key}", "evaluate", tuple(args), report,
                            headline, analytic))

    def baseline(key, machine, variant, threshold=None):
        args = ["baseline", "--variant", variant, "--data", str(data / machine),
                "--out", str(out / key)]
        if threshold is not None:
            args += ["--threshold", str(threshold)]
        cmds.append(Command(f"baseline:{key}", "baseline", tuple(args),
                            out / key / "model.json"))

    if workload == "fit_swing2":
        discover("swing2")
        evaluate("run", out / "run" / "model.json", "swing2", headline=True)
        # the walkthrough's threshold: the swing coefficients sit near 1/(2H)
        baseline("accurate", "swing2", "accurate", 0.02)
        evaluate("accurate", out / "accurate" / "model.json", "swing2")
    elif workload == "search_order5":
        discover("type1order5")
        evaluate("run", out / "run" / "model.json", "type1order5", use_ae=True,
                 headline=True)
    elif workload == "replay_baseline":
        for machine in inputs.MACHINES:
            threshold = 0.02 if machine == "swing2" else None
            for variant in ("accurate", "overcomplete", "missing"):
                key = f"{machine}_{variant}"
                baseline(key, machine, variant, threshold)
                evaluate(key, out / key / "model.json", machine)
            fixture = ins / f"analytic_{machine}.json"
            evaluate(f"{machine}_analytic", fixture, machine, analytic=True)
            evaluate(f"{machine}_analytic_ae", fixture, machine, use_ae=True,
                     headline=machine == "type1order5", analytic=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


# ---------------------------------------------------------------------------
# Summaries


def summarize(cmd: Command) -> dict:
    """Reduce a command's output file to what the checks compare."""
    doc = json.loads(cmd.output.read_text())
    if cmd.kind == "evaluate":
        agg = doc["aggregate"]
        return {"mape_pct": agg["mape_pct"], "r2": agg["r2"], "diverged": doc["diverged"],
                "valid_samples": doc["valid_samples"]}
    if cmd.kind == "baseline":
        return {"coefficients": doc["coefficients"], "ridge_fallback": doc["ridge_fallback"]}
    run_dir = cmd.output.parent
    log = [json.loads(line) for line in (run_dir / "run_log.jsonl").read_text().splitlines()]
    out = {"de": _loop_summary(doc["de"]), "ae": _loop_summary(doc["ae"]),
           "run_log": [[r.get("loop"), r.get("iteration"), r.get("event"),
                        r.get("candidates"), r.get("rejected"), r.get("added_variables")]
                       for r in log],
           "archives": {}}
    for kind in ("de", "ae"):
        path = run_dir / f"archive_{kind}.json"
        if path.exists():
            snap = json.loads(path.read_text())
            out["archives"][kind] = sorted({
                m["text"] for island in snap["islands"] for c in island["clusters"]
                for m in c["members"] if math.isfinite(m["score"])})
    return out


def _loop_summary(part: dict) -> dict:
    if "skipped" in part:
        return {"skipped": True}
    return {"targets": part["targets"], "text": part["text"], "params": part["params"],
            "score": part["score"], "iterations": part["iterations"]}


# ---------------------------------------------------------------------------
# Checks


def _canonical(text: str, states, variables=(), targets=None, kind="de") -> str:
    from daedisc.dsl import SymbolScope, parse, serialize

    scope = SymbolScope(states=tuple(states), variables=tuple(variables))
    return serialize(parse(text, scope, list(targets or states), kind=kind))


def _expected_rejections(batches) -> list[int]:
    return [sum(k in REJECTED_KINDS for k in batch) for batch in batches]


def _iteration_shape(summary: dict, loop: str) -> list[tuple[int, int, int]]:
    return [(it, cand, rej) for lp, it, event, cand, rej, _ in summary["run_log"]
            if lp == loop and event == "iteration"]


def _check_loop_shape(summary, loop, batches, problems):
    shape = _iteration_shape(summary, loop)
    want = [(i + 1, len(b), r)
            for i, (b, r) in enumerate(zip(batches, _expected_rejections(batches)))]
    if shape[:len(want)] != want:
        problems.append(f"{loop} run log (iteration, candidates, rejected) {shape} "
                        f"does not start with {want}")


def _in_archive(summary: dict, kind: str, text: str, what: str) -> list[str]:
    if text in summary["archives"].get(kind, []):
        return []
    return [f"{what} missing from the {kind.upper()} archive (or not scored)"]


def check_invariants(workload: str, cmd: Command, summary: dict, mix) -> list[str]:
    """Checks that hold for any seed.

    Which candidate wins, and so how well the headline model replays, is not
    checked: scores reflect how far Adam gets as well as the structure, and
    on some seeds a wrong structure outscores the true one.  ``outcome``
    reports it.
    """
    problems: list[str] = []
    if cmd.kind == "evaluate":
        if cmd.analytic:
            if summary["diverged"] or not summary["mape_pct"] < ANALYTIC_MAPE_LIMIT_PCT:
                problems.append(f"analytic replay MAPE {summary['mape_pct']} % "
                                f"(diverged: {summary['diverged']}), limit "
                                f"{ANALYTIC_MAPE_LIMIT_PCT} %")
        return problems
    if cmd.kind != "discover":
        return problems
    if workload == "fit_swing2":
        if not summary["ae"].get("skipped"):
            problems.append("algebraic loop ran; no candidate uses an algebraic signal")
        _check_loop_shape(summary, "de", mix["batches"], problems)
        problems += _in_archive(summary, "de", swing_true_canonical(), "true swing structure")
    elif workload == "search_order5":
        _check_loop_shape(summary, "de", mix["de"]["batches"], problems)
        _check_loop_shape(summary, "ae", mix["ae"]["batches"], problems)
        added = {it: vars_ for lp, it, event, _, _, vars_ in summary["run_log"]
                 if lp == "de" and event == "iteration" and vars_}
        if added != ORDER5_ADMISSIONS:
            problems.append(f"variable admissions {added} != {ORDER5_ADMISSIONS}")
        if summary["ae"].get("targets") != ORDER5_AE_TARGETS:
            problems.append(f"algebraic targets {summary['ae'].get('targets')} "
                            f"!= {ORDER5_AE_TARGETS}")
        de_true, ae_true = order5_true_canonical()
        problems += _in_archive(summary, "de", de_true, "true order-5 structure")
        problems += _in_archive(summary, "ae", ae_true, "true algebraic structure")
    return problems


def swing_true_canonical() -> str:
    return _canonical(inputs.SWING_TRUE, SWING_STATES)


def order5_true_canonical() -> tuple[str, str]:
    signals = ORDER5_ADMISSIONS[4] + ["V_g", "theta_g"]
    return (_canonical(inputs.O5_TRUE, ORDER5_STATES, signals),
            _canonical(inputs.O5_AE_TRUE, ORDER5_STATES, ["P_m", "v_f", "V_g", "theta_g"],
                       ORDER5_AE_TARGETS, kind="ae"))


def outcome(workload: str, cmd: Command, summary: dict) -> dict:
    """Deterministic figures of how the search went (reported, not checked)."""
    if cmd.kind == "discover":
        true_text = (swing_true_canonical() if workload == "fit_swing2"
                     else order5_true_canonical()[0])
        return {"de_score": summary["de"].get("score"), "ae_score": summary["ae"].get("score"),
                "true_structure_selected": summary["de"].get("text") == true_text}
    if cmd.headline:
        return {"replay_mape_pct": summary["mape_pct"], "replay_r2": summary["r2"],
                "replay_diverged": summary["diverged"]}
    return {}


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


def compare(summary: dict, expected: dict, what: str) -> list[str]:
    """Field-by-field comparison; numbers within REL_TOL, everything else equal."""
    problems = []
    for key in sorted(set(summary) | set(expected)):
        if not _close(summary.get(key), expected.get(key)):
            problems.append(f"{key} differs from the {what}")
    return problems


def load_reference(workload: str) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def write_reference(workload: str, summaries: dict) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "summaries": summaries},
                               indent=1, sort_keys=True) + "\n")
    return path
