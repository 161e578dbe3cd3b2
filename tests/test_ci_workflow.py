"""Syntax-validate the CI pipeline (`.github/workflows/ci.yml`).

There is no `act` in the test environment, so this is the executable stand-in:
the workflow must parse as YAML and carry the structure the repo's gates
depend on — a test matrix across supported Pythons, a full-suite job that
includes the ``slow`` tier, a perf job wired to ``perf_report.py``'s ratio
gate, a ruff lint job, and a static-analysis job running the repo-native
invariant lint engine, the structural guards and the typed-core mypy gate.
A refactor that silently drops one of the gates fails here instead of on the
first broken PR.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW_PATH = (
    Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"
)


@pytest.fixture(scope="module")
def workflow():
    assert WORKFLOW_PATH.exists(), "CI workflow must be committed"
    return yaml.safe_load(WORKFLOW_PATH.read_text())


def _steps_text(job: dict) -> str:
    return " ".join(str(step.get("run", "")) for step in job["steps"])


def _install_text(job: dict) -> str:
    return " ".join(
        str(step.get("run", ""))
        for step in job["steps"]
        if "pip install" in str(step.get("run", ""))
    )


def test_workflow_parses_and_triggers(workflow):
    # YAML 1.1 parses the bare `on` key as boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert "push" in triggers


def test_test_matrix_covers_supported_pythons(workflow):
    matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
    assert [str(v) for v in matrix] == ["3.10", "3.11", "3.12"]
    run = _steps_text(workflow["jobs"]["tests"])
    assert "python -m pytest" in run
    assert 'not slow' in run  # the matrix runs the fast tier


def test_full_suite_job_runs_slow_tier(workflow):
    run = _steps_text(workflow["jobs"]["full-suite"])
    assert "python -m pytest" in run
    assert "not slow" not in run  # one job runs everything


def test_full_suite_runs_end_to_end_benchmark_smoke(workflow):
    # benchmarks/e2e is not under tier-1's testpaths; CI runs it by path.
    run = _steps_text(workflow["jobs"]["full-suite"])
    assert "python -m pytest -q benchmarks/e2e/test_e2e_bench.py" in run


def test_no_job_pins_the_hash_seed(workflow):
    # Division is a function of the graph's value under any hash seed
    # (tests/test_value_determinism.py divides a str-labelled graph under
    # two of them), so a pin here could only hide an ordering leak.
    scopes = [workflow, *workflow["jobs"].values()]
    scopes += [step for job in workflow["jobs"].values() for step in job["steps"]]
    for scope in scopes:
        assert "PYTHONHASHSEED" not in scope.get("env", {})
        assert "PYTHONHASHSEED" not in str(scope.get("run", ""))


def test_workflow_pins_one_blas_thread(workflow):
    # Same pin as benchmarks/e2e/run.py.  The blocked-inference contract in
    # tests/test_nn_engine.py holds per GEMM shape and thread count.
    env = workflow.get("env", {})
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert str(env.get(name)) == "1", name


def test_perf_report_pins_one_blas_thread():
    # The kernel gate must read its ratios the way CI and
    # benchmarks/e2e/run.py run: the pin is in force when NumPy is imported.
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    probe = (
        "import importlib.abc, importlib.util, os, sys\n"
        "seen = []\n"
        "class Watch(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.append([os.environ.get(n) for n in {names!r}])\n"
        "sys.meta_path.insert(0, Watch())\n"
        "spec = importlib.util.spec_from_file_location('perf_report', sys.argv[1])\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
        "print(seen)\n"
    )
    script = Path(__file__).resolve().parent.parent / "scripts" / "perf_report.py"
    env = {key: value for key, value in os.environ.items() if key not in names}
    result = subprocess.run(
        [sys.executable, "-c", probe, str(script)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[['1', '1', '1']]"


def test_perf_gate_runs_ratio_check(workflow):
    run = _steps_text(workflow["jobs"]["perf-gate"])
    assert "scripts/perf_report.py" in run
    assert "--check-ratios" in run


def test_lint_job_runs_ruff(workflow):
    job = workflow["jobs"]["lint"]
    run = _steps_text(job)
    assert "ruff check" in run
    assert "ruff format --check" in run
    format_steps = [
        step for step in job["steps"] if "ruff format" in str(step.get("run", ""))
    ]
    assert format_steps and format_steps[0].get("continue-on-error") is True


def test_static_analysis_job_runs_invariant_lint(workflow):
    job = workflow["jobs"]["static-analysis"]
    run = _steps_text(job)
    assert "python -m repro.lint" in run
    lint_steps = [
        step for step in job["steps"] if "repro.lint" in str(step.get("run", ""))
    ]
    # Blocking: the lint step must not be marked continue-on-error.
    assert lint_steps and not lint_steps[0].get("continue-on-error")


def test_static_analysis_job_runs_typed_core_mypy(workflow):
    job = workflow["jobs"]["static-analysis"]
    run = _steps_text(job)
    assert "mypy" in run
    assert "src/repro" in run
    mypy_steps = [
        step for step in job["steps"] if "mypy" in str(step.get("run", ""))
    ]
    # Blocking: the mypy gate must not be marked continue-on-error.
    assert mypy_steps and not mypy_steps[0].get("continue-on-error")
    install = _install_text(job)
    assert "mypy" in install and "numpy" in install


def test_static_analysis_runs_the_no_process_pool_guard(workflow, tmp_path):
    # The guard is only worth having if it is blocking and passes on the
    # tree it ships with: run the step's own script from the repo root.
    job = workflow["jobs"]["static-analysis"]
    (guard,) = [
        step for step in job["steps"] if "BrokenProcessPool" in str(step.get("run", ""))
    ]
    assert not guard.get("continue-on-error")

    def run_guard(root: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["bash", "-c", guard["run"]],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=60,
        )

    result = run_guard(WORKFLOW_PATH.parent.parent.parent)
    assert result.returncode == 0, result.stderr
    # A pool, multiprocessing or shared memory fails it in any module.
    home = tmp_path / "src" / "repro" / "runtime"
    home.mkdir(parents=True)
    for source, named in (
        ("from concurrent.futures import ProcessPoolExecutor\n", "ProcessPoolExecutor"),
        ("from concurrent.futures.process import BrokenProcessPool\n", "BrokenProcessPool"),
        ("import multiprocessing as mp\n", "multiprocessing"),
        ("from multiprocessing import shared_memory\n", "shared_memory"),
        ("import multiprocessing.shared_memory\n", "shared_memory"),
    ):
        (home / "pool.py").write_text(source)
        result = run_guard(tmp_path)
        assert result.returncode != 0, source
        assert named in result.stderr, source


def test_static_analysis_runs_the_routed_kernel_guard(workflow):
    # tests/test_routed_kernels.py is the check; the job runs it by path,
    # blocking, and installs what it needs to do so.
    job = workflow["jobs"]["static-analysis"]
    (guard,) = [
        step
        for step in job["steps"]
        if "tests/test_routed_kernels.py" in str(step.get("run", ""))
    ]
    assert "python -m pytest" in guard["run"]
    assert not guard.get("continue-on-error")
    install = _install_text(job)
    assert "pytest" in install


def test_typed_core_mypy_config_is_strict(workflow):
    # The strict scope lives in pyproject.toml; the CI step just runs
    # `mypy src/repro`.  Validate the config names the typed core and turns
    # on disallow_untyped_defs for it.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        pytest.skip("tomllib unavailable")
    pyproject = WORKFLOW_PATH.parent.parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    overrides = config["tool"]["mypy"]["overrides"]
    strict = [o for o in overrides if o.get("disallow_untyped_defs")]
    assert strict, "pyproject.toml must carry a strict typed-core override"
    modules = strict[0]["module"]
    for required in ("repro.runtime.*", "repro.graph.csr", "repro.graph.phase2"):
        assert required in modules
    assert strict[0].get("ignore_errors") is False


def test_every_job_has_a_timeout(workflow):
    # A hung step must not wedge CI: every job carries an explicit bound.
    for name, job in workflow["jobs"].items():
        minutes = job.get("timeout-minutes")
        assert isinstance(minutes, int) and 0 < minutes <= 60, (
            f"job {name!r} must set a sane timeout-minutes, got {minutes!r}"
        )


def test_full_suite_runs_fault_free_serve_replay_smoke(workflow):
    job = workflow["jobs"]["full-suite"]
    (smoke,) = [
        step for step in job["steps"] if "repro.cli serve-replay" in str(step.get("run", ""))
    ]
    assert "serve-replay --scale tiny --seed 1" in smoke["run"]
    assert not smoke.get("continue-on-error")
    # The fault injector and its chaos command are gone with the retry loop.
    run = _steps_text(job)
    assert "--fault-rate" not in run and "repro.cli chaos" not in run


def test_jobs_use_pip_caching(workflow):
    for name in ("tests", "full-suite", "perf-gate", "static-analysis"):
        setup_steps = [
            step
            for step in workflow["jobs"][name]["steps"]
            if "setup-python" in str(step.get("uses", ""))
        ]
        assert setup_steps and setup_steps[0]["with"]["cache"] == "pip"
