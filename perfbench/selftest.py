"""Self-tests of the benchmark: the oracle checker, the self-time
arithmetic, the tracer's wrapping, and the repeatability of traced counts.

Run from the repository root:

    python3 perfbench/selftest.py

(or `python3 -m pytest perfbench/selftest.py`).  The traced-count test runs
every timed workload twice, traced, and takes several minutes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import kreinext as kx  # noqa: E402
from jobs import Job, library_pipeline, run_job  # noqa: E402
from oracles import (  # noqa: E402
    CANDIDATE_LABEL,
    KREIN_LABEL,
    TK_ABS_TOL,
    check,
    pure_toeplitz,
)
from tracing import COUNTS, Tracer, self_times  # noqa: E402

PURE2_EXPECT = {"bracket": True, "T_K": (pure_toeplitz(2, 1.0), TK_ABS_TOL, "abs")}


def _pure2_outcome():
    return {"exit": 0, "report": library_pipeline(kx.preset_pure(1, (0.0, 1.0)))}


def test_checker_accepts_a_correct_report():
    assert check(_pure2_outcome(), PURE2_EXPECT) == []


def test_checker_rejects_tk_entry_off_by_1e_6():
    outcome = _pure2_outcome()
    outcome["report"]["matrices"]["T_K"][0, 1] += 1e-6
    problems = check(outcome, PURE2_EXPECT)
    assert any("T_K" in p for p in problems), problems


def _minus_20_report(certified: bool, role: str) -> dict:
    """A verify report for -y'' - 20y on [0, 1], whose true lowest
    eigenvalue pi^2 - 20 is negative."""
    verdict = {"verdict": True}
    return {
        "validation": {"passed": True},
        "positivity": {"certified_strictly_positive": certified,
                       "lambda_min": 4 * math.pi**2 - 20},
        "matrices": {"role": role},
        "checks": {"krein_self_adjoint": verdict, "friedrichs_self_adjoint": verdict,
                   "relatively_prime": verdict},
    }


def test_checker_rejects_false_krein_label():
    outcome = {"exit": 0, "report": _minus_20_report(True, KREIN_LABEL)}
    problems = check(outcome, {"certified": False})
    assert any(KREIN_LABEL in p for p in problems), problems
    honest = {"exit": 0, "report": _minus_20_report(False, CANDIDATE_LABEL)}
    assert check(honest, {"certified": False}) == []


def test_checker_rejects_a_traceback():
    def crash():
        raise TypeError("Object of type bool is not JSON serializable")

    outcome = run_job(Job("crash", "pipeline", "", {}, build=crash))
    problems = check(outcome, {})
    assert problems and "TypeError" in problems[0], problems


def test_checker_rejects_wrong_exit_code():
    outcome = _pure2_outcome()
    outcome["exit"] = 2
    assert check(outcome, PURE2_EXPECT) == ["exit code 2, expected 0"]


def test_self_time_on_synthetic_tree():
    # 0: root [0, 10]; 1: [1, 3] and 2: [2, 5] overlap; 3: [6, 7] with
    # grandchild 4: [6.5, 6.8]; 5: [9, 12] runs past the root and is clipped
    starts = [0.0, 1.0, 2.0, 6.0, 6.5, 9.0]
    ends = [10.0, 3.0, 5.0, 7.0, 6.8, 12.0]
    parents = [-1, 0, 0, 0, 3, 0]
    got = self_times(starts, ends, parents)
    want = [10 - (4 + 1 + 1), 2.0, 3.0, 1 - 0.3, 0.3, 3.0]
    assert np.allclose(got, want), got


def test_tracer_restores_and_marks_absent():
    import kreinext.spectral as spectral

    original = spectral._golden_minimize
    del spectral._golden_minimize
    tracer = Tracer()
    try:
        tracer.install()
        assert kx.fundamental_matrix.__wrapped__ is spectral.fundamental_matrix.__wrapped__
        tracer.current_job = 0
        library_pipeline(kx.preset_pure(1, (0.0, 1.0)))
    finally:
        tracer.uninstall()
        spectral._golden_minimize = original
    assert not hasattr(kx.fundamental_matrix, "__wrapped__")
    metrics, absent = tracer.metrics()
    assert absent == ["spectral.refine_evals", "spectral.refine_share"], absent
    assert metrics["integration.propagations"] == 1
    assert metrics["brackets.pairs"] == 4
    assert metrics["system.validate_s"] > 0


def _traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def test_traced_counts_repeat():
    for workload in ("scan", "pipeline-exact"):
        first = _traced_counts(workload, seed=7)
        second = _traced_counts(workload, seed=7)
        assert first == second, (workload, first, second)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
