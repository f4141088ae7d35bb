"""The bundled demos and the README's quick start run to completion, and
every public name resolves."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import propfit

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_and_the_readme_quick_start_runs():
    # A name left in __all__ after its deletion breaks `from propfit import *`.
    namespace: dict = {}
    exec("from propfit import *", namespace)
    assert set(propfit.__all__) <= set(namespace)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
