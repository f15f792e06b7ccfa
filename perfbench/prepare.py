"""Set-up step of one benchmark run, timed as a whole fresh process.

    python3 perfbench/prepare.py --workload W --seed N --out DIR

Imports daedisc, writes the seeded inputs to DIR/inputs and runs
``daedisc gen-data`` for every machine the workload uses into DIR/data.
Prints one JSON line describing the inputs (machines, candidate mix).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from daedisc.cli import main as cli_main

    from perfbench.inputs import write_inputs

    info = write_inputs(args.workload, args.seed, args.out / "inputs")
    for machine in info["machines"]:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli_main(["gen-data", "--model", machine,
                          "--scenario", str(args.out / "inputs" / f"scen_{machine}.json"),
                          "--out", str(args.out / "data" / machine)],
                         standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    print(f"gen-data failed for {machine}", file=sys.stderr)
                    return 1
    print(json.dumps(info, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
