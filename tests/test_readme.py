"""The README's library example runs as written.

The walkthrough's heredoc files (``scen.json``, ``script.json``,
``run.json``) are written into a temporary directory, and the "Library use"
Python block runs there in a fresh interpreter, so the documented API is the
tested one.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import daedisc

SRC = Path(daedisc.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(tmp_path):
    text = README.read_text()
    files = dict(re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", text, re.M | re.S))
    assert sorted(files) == ["run.json", "scen.json", "script.json"]
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    section = text.split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "fit_baseline(" in example
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", example], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "('ddelta_dt', 'domega_dt')" in proc.stdout, proc.stdout
