#!/usr/bin/env python3
"""Benchmark of the daedisc pipeline.

    python3 perfbench/run.py --workload fit_swing2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up writes the seeded inputs and runs
``daedisc gen-data`` in fresh processes (timed as ``setup_s``); then passes
of the workload's command sequence run in-process through
``daedisc.cli.main`` for ``--seconds`` seconds, each pass's outputs checked.
Timings are scaled to a reference machine speed by a probe sampled while
they run (``clock.py``): the host's speed drifts by tens of percent within
seconds, and this keeps them comparable across runs.  With ``--trace 0`` the end-to-end metrics
are reported, with ``--trace 1`` the per-layer metrics from wrapped passes,
alternating with plain passes that give the tracing overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A result file with the
environment stamp, per-pass timings, the candidate mix and every check
failure goes to ``.perfbench_results/``.
"""

from __future__ import annotations

import os

# pinned before NumPy loads, so BLAS calls stay on one thread on every run
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit_swing2", "search_order5", "replay_baseline")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3
# passes start until --seconds have passed (at least MIN_PASSES of them);
# none starts after this point, so a run ends well inside 180 s
PASS_DEADLINE_S = 120.0


class SetupFailed(RuntimeError):
    pass


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def setup(workload: str, seed: int, work: Path) -> tuple[list[float], dict, Path, bool]:
    """Run the set-up process SETUP_REPEATS times; returns (scaled times,
    input description, directory kept, whether every repeat wrote identical
    files)."""
    from perfbench import clock

    times: list[float] = []
    digests: list[str] = []
    info: dict = {}
    dirs = []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        cmd = [sys.executable, str(ROOT / "perfbench" / "prepare.py"),
               "--workload", workload, "--seed", str(seed), "--out", str(out)]
        before = clock.probe_median()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              cwd=ROOT)
        wall = time.perf_counter() - t0
        times.append(clock.scale(wall, 0.5 * (before + clock.probe_median())))
        if proc.returncode != 0:
            raise SetupFailed(proc.stderr[-4000:])
        info = json.loads(proc.stdout.splitlines()[-1])
        digests.append(_tree_digest(out))
        dirs.append(out)
    for d in dirs[:-1]:
        shutil.rmtree(d)
    return times, info, dirs[-1], len(set(digests)) == 1


def env_stamp() -> dict:
    import numpy

    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": _tree_digest(ROOT / "src" / "daedisc"),
    }


def run_pass(cmds, cli_main, speed, tracer=None) -> list[dict]:
    """Run each command once, in order; returns one record per command with
    its wall and reference-speed time."""
    records = []
    for cmd in cmds:
        error = None
        before = speed.now()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            index = tracer.begin(f"cli.{cmd.kind}") if tracer else None
            try:
                cli_main(list(cmd.args), standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    error = f"exit code {exc.code}"
            except Exception:  # noqa: BLE001 - a failing command is counted, not fatal
                error = traceback.format_exc(limit=3)
            finally:
                if tracer:
                    tracer.end(index)
        wall = time.perf_counter() - t0
        records.append({"cmd": cmd, "wall": wall, "seconds": speed.now() - before,
                        "error": error})
    return records


def check_command(rec: dict, workload: str, mix, first: dict, reference,
                  summaries: dict) -> list[str]:
    """Problems with one command's run; its summary goes into ``summaries``
    and, on the first pass, into ``first``."""
    from perfbench import workloads as wl

    if rec["error"]:
        return [rec["error"]]
    cmd = rec["cmd"]
    try:
        summary = wl.summarize(cmd)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    summaries[cmd.key] = summary
    found = wl.check_invariants(workload, cmd, summary, mix)
    if cmd.key in first:
        found += wl.compare(summary, first[cmd.key], "first pass")
    else:
        first[cmd.key] = summary
    if reference is not None:
        expected = reference["summaries"].get(cmd.key)
        found += (wl.compare(summary, expected, "reference")
                  if expected is not None else ["not in the reference"])
    return found


def pass_timings(records) -> dict:
    out = {"pipeline_s": sum(r["seconds"] for r in records),
           "pipeline_wall_s": sum(r["wall"] for r in records)}
    for kind in ("discover", "evaluate", "baseline"):
        out[f"{kind}_s"] = sum(r["seconds"] for r in records if r["cmd"].kind == kind)
    out["commands"] = {r["cmd"].key: r["seconds"] for r in records}
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else float("nan"), "q1": None, "q3": None,
                "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the first pass's outputs as the default seed's reference")
    args = parser.parse_args(argv)

    package = ROOT / "src" / "daedisc"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from the root of a daedisc checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import daedisc

    if Path(daedisc.__file__).resolve().parent != package.resolve():
        print(f"error: imported daedisc from {daedisc.__file__}, not {package}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    try:
        return _run(args, work)
    except SetupFailed as exc:
        print(f"error: set-up failed:\n{exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(args, work: Path) -> int:
    from daedisc.cli import main as cli_main

    from perfbench import clock
    from perfbench import tracer as tr
    from perfbench import workloads as wl

    if args.write_reference and args.seed != wl.DEFAULT_SEED:
        print(f"error: the reference is for seed {wl.DEFAULT_SEED}", file=sys.stderr)
        return 2
    setup_times, info, data_dir, setup_identical = setup(args.workload, args.seed, work)
    problems: list[str] = []
    if not setup_identical:
        problems.append("set-up repeats wrote different files for the same seed")
    mix = info.get("mix")
    run_cfg = data_dir / "inputs" / "run.json"
    fit = json.loads(run_cfg.read_text())["fit"] if run_cfg.exists() else {}
    out = data_dir / "pass"
    cmds = wl.commands(args.workload, data_dir, out)
    reference = None
    if args.seed == wl.DEFAULT_SEED and not args.write_reference:
        reference = wl.load_reference(args.workload)
        if reference is None:
            problems.append("no stored reference for the default seed")

    setup_layers: dict = {}
    if args.trace:
        # gen-data runs in the set-up processes; trace one more in-process run
        tracer = tr.Tracer()
        with tr.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
            for machine in info["machines"]:
                cli_main(["gen-data", "--model", machine, "--scenario",
                          str(data_dir / "inputs" / f"scen_{machine}.json"),
                          "--out", str(work / "setup_trace" / machine)],
                         standalone_mode=False)
        full = tr.layer_metrics(tracer.spans, 0, 0)
        setup_layers = {k: full[k] for k in ("benchmarks.simulate.s",
                                             "dataset.export_dataset.s")}

    passes: list[dict] = []
    layer_runs: list[dict] = []
    last_tracer = None
    first: dict = {}
    attempted = failed = 0
    started = time.perf_counter()
    with clock.SpeedClock() as speed:
        while True:
            elapsed = time.perf_counter() - started
            if len(passes) >= MIN_PASSES and elapsed >= min(args.seconds, PASS_DEADLINE_S):
                break
            traced = bool(args.trace) and len(passes) % 2 == 1
            shutil.rmtree(out, ignore_errors=True)
            pass_started = time.perf_counter()
            if traced:
                tracer = tr.Tracer(now=speed.now)
                with tr.installed(tracer):
                    records = run_pass(cmds, cli_main, speed, tracer)
                layer_runs.append(tr.layer_metrics(
                    tracer.spans, fit.get("steps", 0), fit.get("restarts", 0)))
                last_tracer = tracer
            else:
                records = run_pass(cmds, cli_main, speed)
            timing = pass_timings(records)
            timing["pass_wall_s"] = time.perf_counter() - pass_started
            timing["traced"] = traced
            passes.append(timing)
            summaries = {}
            for rec in records:
                attempted += 1
                found = check_command(rec, args.workload, mix, first, reference, summaries)
                if found:
                    failed += 1
                    problems += [f"pass {len(passes)} {rec['cmd'].key}: {p}" for p in found]
            if args.write_reference and len(passes) == 1:
                path = wl.write_reference(args.workload, summaries)
                print(f"reference written to {path}", file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    stats = {k: quartiles([p[k] for p in plain])
             for k in ("pipeline_s", "evaluate_s", "discover_s", "baseline_s",
                       "pipeline_wall_s")}
    stats["setup_s"] = quartiles(setup_times)
    if args.trace:
        metrics = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        metrics.update(setup_layers)
        traced = [p for p in passes if p["traced"]]
        for kind in ("discover", "evaluate", "baseline"):
            metrics[f"cli.{kind}.s"] = stats[f"{kind}_s"]["median"]
        for kind in ("discover", "evaluate"):
            metrics[f"trace.overhead.{kind}_s"] = (
                statistics.median(p[f"{kind}_s"] for p in traced)
                - stats[f"{kind}_s"]["median"])
        metrics["trace.overhead.pipeline_pct"] = 100.0 * (
            statistics.median(p["pipeline_s"] for p in traced)
            / stats["pipeline_s"]["median"] - 1.0)
        metrics["trace.spans_per_pass"] = len(last_tracer.spans)
        reported = {k: {"value": metrics[k], "unit": u} for k, u in _units("per_layer").items()}
    else:
        values = {"setup_s": stats["setup_s"]["median"],
                  "pipeline_s": stats["pipeline_s"]["median"],
                  "evaluate_s": stats["evaluate_s"]["median"],
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        reported = {k: {"value": values[k], "unit": u} for k, u in _units("end_to_end").items()}

    quality = _quality(args.workload, first, cmds)
    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": reported}
    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if last_tracer is not None:
        last_tracer.write(results_dir / f"{stem}.spans.jsonl.gz")
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_stamp(), "inputs": info,
        "setup_s": setup_times, "timing": stats, "passes": passes,
        "quality": quality, "problems": problems, **result}, indent=1, sort_keys=True))

    _print_table(reported, stats, quality, failed, attempted, problems)
    print(json.dumps(result, sort_keys=True))
    return 0


def _quality(workload: str, first: dict, cmds) -> dict:
    """Deterministic outcome figures of the first pass (scores, replay)."""
    from perfbench import workloads as wl

    out = {}
    for cmd in cmds:
        if cmd.key in first:
            out.update(wl.outcome(workload, cmd, first[cmd.key]))
    return out


def _units(section: str) -> dict:
    """Metric name -> unit, for one section of BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _print_table(reported, stats, quality, failed, attempted, problems) -> None:
    print(f"{'metric':<40} {'value':>14}  unit")
    for name, m in reported.items():
        print(f"{name:<40} {m['value']:>14.6g}  {m['unit']}")
    print("timings over plain passes (median [q1, q3], n):")
    for name, s in stats.items():
        if s["q1"] is None:
            print(f"  {name:<38} {s['median']:.4f} (n={s['n']})")
        else:
            print(f"  {name:<38} {s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}] "
                  f"(n={s['n']})")
    for name, value in quality.items():
        print(f"  {name:<38} {value}")
    print(f"commands failed: {failed} of {attempted}")
    for p in problems[:20]:
        print(f"  check: {p}")


if __name__ == "__main__":
    sys.exit(main())
