"""Closed-form oracles for the benchmark's job outputs.

Every check uses a tolerance the acceptance suite (tests/test_acceptance.py)
already uses, none looser and none tighter; the fourth-order eigenvalue's is
criterion 7's beam tolerance scaled to its interval.  A report is the dict the CLI writes (or
`kreinext.cli.run` returns), so the same checker serves the command line,
the in-process CLI and the library pipeline.  `check` returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

# tolerances of tests/test_acceptance.py
TK_ABS_TOL = 1e-8          # criteria 1 and 3: T_K entries
TK_REL_TOL = 1e-7          # criterion 2: fourth-order T_K, relative
LAMBDA_TOL = 1e-5          # criterion 7: pi^2 on [0, 1]
BEAM_TOL = 1e-2            # criterion 7: clamped beam mu^4 on [0, 1]
BRACKET_TOL = 1e-8         # criterion 8: bracket constancy

KREIN_LABEL = "Krein--von Neumann"
CANDIDATE_LABEL = "candidate"

# first root of cos(mu) cosh(mu) = 1 above zero (clamped beam), to 1e-13
BEAM_MU = 4.730040744862704


def pure_toeplitz(order: int, length: float) -> np.ndarray:
    """T_K of the pure operator of the given order on an interval of the
    given length: upper triangular Toeplitz, entries h^(k-j)/(k-j)!."""
    return np.array(
        [[length ** (k - j) / math.factorial(k - j) if k >= j else 0.0
          for k in range(order)] for j in range(order)]
    )


def fourth_order_tk() -> np.ndarray:
    """Criterion 2: T_K of y'''' + y on [0, sqrt(2) pi]."""
    sh = math.sinh(math.pi) / math.sqrt(2.0)
    ch = math.cosh(math.pi)
    return np.array(
        [
            [-ch, -sh, 0.0, sh],
            [-sh, -ch, -sh, 0.0],
            [0.0, -sh, -ch, -sh],
            [sh, 0.0, -sh, -ch],
        ]
    )


def fourth_order_lambda(length: float = math.sqrt(2.0) * math.pi) -> float:
    """Lowest clamped eigenvalue of y'''' + y on [0, L]: mu^4 / L^4 + 1."""
    return BEAM_MU**4 / length**4 + 1.0


def fourth_order_lambda_tol(length: float = math.sqrt(2.0) * math.pi) -> float:
    """Criterion 7's beam tolerance, scaled with the eigenvalue from [0, 1]
    to [0, L]: 1e-2 / L^4 (about 2.6e-5 at L = sqrt(2) pi)."""
    return BEAM_TOL / length**4


def cosh_sinh_tk(length: float, M: int = 1) -> np.ndarray:
    """Criterion 3: T_K of -y'' + y on [0, L] is the cosh/sinh rotation,
    block-diagonal in the M components."""
    c, s = math.cosh(length), math.sinh(length)
    return np.kron(np.array([[c, s], [s, c]]), np.eye(M))


def as_matrix(value) -> np.ndarray:
    """A report matrix (rows of [re, im] pairs) or an array, as complex."""
    if isinstance(value, np.ndarray):
        return value.astype(complex)
    rows = [[complex(entry[0], entry[1]) if isinstance(entry, (list, tuple))
             else complex(entry) for entry in row] for row in value]
    return np.array(rows, dtype=complex)


def _get(report: dict, *keys):
    node = report
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _check_tk(report, spec, problems):
    raw = _get(report, "matrices", "T_K")
    if raw is None:
        problems.append("report has no T_K")
        return
    expected, tol, mode = spec
    actual = as_matrix(raw)
    if actual.shape != expected.shape:
        problems.append(f"T_K shape {actual.shape} != {expected.shape}")
        return
    dev = float(np.abs(actual - expected).max())
    if mode == "rel":
        dev /= float(np.abs(expected).max())
    if not dev <= tol:
        problems.append(f"T_K {mode} deviation {dev:.3e} > {tol:.0e}")


def _check_lambda(report, spec, problems):
    lam = _get(report, "positivity", "lambda_min")
    kind = spec[0]
    if kind == "none_below":
        if lam is not None:
            problems.append(f"eigenvalue {float(lam):.6g} located below {spec[1]}")
        return
    if lam is None:
        problems.append("no eigenvalue located")
        return
    lam = float(lam)
    if kind == "value":
        _, value, tol = spec
        if not abs(lam - value) <= tol:
            problems.append(f"lambda_min {lam:.10g} != {value:.10g} (tol {tol:.0e})")
    elif kind == "between":
        _, lo, hi = spec
        if not lo <= lam <= hi:
            problems.append(f"lambda_min {lam:.10g} outside [{lo:.6g}, {hi:.6g}]")


def _check_closed_form(report, order, problems):
    section = report.get("closed_form")
    if not isinstance(section, dict):
        problems.append("report has no closed_form section")
        return
    if section.get("factorization_ok") is not True:
        problems.append("closed-form factorization not verified")
    expected = [[f"1/{math.factorial(k - j)}" if k - j > 1 else str(int(k >= j))
                 for k in range(order)] for j in range(order)]
    if section.get("T_K") != expected:
        problems.append(f"closed-form T_K differs from 1/(k-j)! on [0, 1] (order {order})")


def check(outcome: dict, expect: dict) -> list:
    """Problems with one job's outcome; empty when it is correct.

    ``outcome`` is ``{"exit": code, "report": dict}`` or
    ``{"error": traceback}``.  ``expect`` may hold ``exit``, ``T_K``
    (matrix, tol, 'abs'|'rel'), ``lambda_min`` (('value', x, tol),
    ('between', lo, hi) or ('none_below', bound)), ``certified``,
    ``verify`` (the verify-all checks ran), ``bracket`` (the report carries
    an all-pairs bracket constancy) and ``closed_form`` (order).
    """
    if "error" in outcome:
        return [f"traceback: {outcome['error'].strip().splitlines()[-1]}"]
    problems = []
    code = outcome.get("exit")
    if code != expect.get("exit", 0):
        problems.append(f"exit code {code}, expected {expect.get('exit', 0)}")
    report = outcome.get("report")
    if not isinstance(report, dict):
        return problems + ["no report"]
    if "closed_form" in expect:
        _check_closed_form(report, expect["closed_form"], problems)
        return problems

    if _get(report, "validation", "passed") is not True:
        problems.append("hypothesis validation did not pass")
    for name in ("krein_self_adjoint", "friedrichs_self_adjoint", "relatively_prime"):
        verdict = _get(report, "checks", name, "verdict")
        if verdict is None or not bool(verdict):
            problems.append(f"{name} verdict is not true")
    if expect.get("verify") and not bool(_get(report, "checks", "kernel_membership_ok")):
        problems.append("kernel membership failed")
    if expect.get("verify") or expect.get("bracket"):
        worst = _get(report, "checks", "bracket_constancy_worst")
        if worst is None or not float(worst) <= BRACKET_TOL:
            problems.append(f"bracket constancy {worst} > {BRACKET_TOL:.0e}")
    if "T_K" in expect:
        _check_tk(report, expect["T_K"], problems)
    if "lambda_min" in expect:
        _check_lambda(report, expect["lambda_min"], problems)
    if "certified" in expect:
        certified = _get(report, "positivity", "certified_strictly_positive")
        if certified is None or bool(certified) != expect["certified"]:
            problems.append(f"certified_strictly_positive is {certified}, "
                            f"expected {expect['certified']}")
        role = _get(report, "matrices", "role")
        want = KREIN_LABEL if expect["certified"] else CANDIDATE_LABEL
        if role != want:
            problems.append(f"matrices labelled {role!r}, expected {want!r}")
    return problems
