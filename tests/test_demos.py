"""Smoke tests running every demo script and the README quick start end to
end, and a check of the README's standard-library-only claim."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DEMO_DIR = os.path.join(ROOT, "demos")


def run_demo(name, tmp_path, *extra):
    script = os.path.join(DEMO_DIR, name)
    # the demos run from tmp_path, so a relative src on PYTHONPATH would
    # not resolve there
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, script] + list(extra),
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,artifacts",
    [
        ("heptagon_wrap.py", ["heptagon_wrap.svg"]),
        ("quotient_table.py", ["quotients.csv", "quotients.svg"]),
        ("rectangle_74.py", ["rectangle_74.svg"]),
    ],
)
def test_demo_writes_artifacts(tmp_path, script, artifacts):
    result = run_demo(script, tmp_path, "--output", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for name in artifacts:
        assert (tmp_path / name).stat().st_size > 0


def test_certify_demo_reports_no_failures(tmp_path):
    result = run_demo("certify_knots.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert "failures: 0" in result.stdout
    assert "MISMATCH" not in result.stdout


def test_short_sweep_demo_shows_convergence(tmp_path):
    result = run_demo("short_fold_sweep.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert "short_52" in result.stdout and "short_72" in result.stdout
    assert "defect/epsilon" in result.stdout


def test_readme_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    result = run_demo(str(script), tmp_path)
    assert result.returncode == 0, result.stderr
    assert "7*cot(pi/7)" in result.stdout
    assert result.stdout.rstrip().endswith("-> MATCH")


def test_package_loads_only_standard_library_modules(tmp_path):
    script = tmp_path / "imports.py"
    script.write_text(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import ribbonfold, ribbonfold.cli, ribbonfold.knot_id\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    result = run_demo(str(script), tmp_path)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "ribbonfold" in loaded
    outside = [m for m in loaded if m != "ribbonfold" and m not in sys.stdlib_module_names]
    assert outside == []
