"""Job sets of the benchmark workloads.

A job is one user-facing operation on one operator, of one of three kinds:

- 'cli': the `krein-ext` command line, run in-process through
  `kreinext.cli.main` with `--config` and `--out`; the written report is
  parsed and checked;
- 'run': the same command's tasks through `kreinext.cli.run`, the report
  checked in memory.  At the seed commit every scan that locates an
  eigenvalue makes `main` fail while writing the report (a `numpy.bool_`
  reaches `json.dumps`); 'run' does the same scan and pipeline work;
- 'pipeline': the README "Library" pipeline (`library_pipeline`).

Every operator is described by a generated config file; the seeded
variable-coefficient operators reach the program only through those
files.  Each job carries the oracle its output must meet (see
`oracles.check`).
"""

from __future__ import annotations

import json
import math
import os
import random
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

import kreinext as kx
import kreinext.cli

from oracles import (
    LAMBDA_TOL,
    TK_ABS_TOL,
    TK_REL_TOL,
    cosh_sinh_tk,
    fourth_order_lambda,
    fourth_order_lambda_tol,
    fourth_order_tk,
    pure_toeplitz,
)

PI2 = math.pi**2
DEFAULT_LAMBDA_MAX = 100.0  # krein-ext's default scan bound

README_CONFIG = """[operator]
order = 2
interval = 0, 1
Z.1.2 = 1
Z.2.1 = 1+x^2
W = 1

[tolerances]
rel_tol = 1e-10
lambda_max = 50

[tasks]
tasks = validate, krein, friedrichs
"""


@dataclass(frozen=True)
class Job:
    name: str
    kind: str     # 'cli', 'run' or 'pipeline'
    config: str   # path of the generated operator config
    expect: dict  # what oracles.check requires of the outcome
    command: str = ""                 # krein-ext subcommand of 'cli' and 'run' jobs
    build: Optional[Callable] = None  # library constructor of a 'pipeline' system

    def call(self) -> dict:
        """Run the operation; return its exit code and report."""
        if self.kind == "cli":
            out = self.config[: -len(".ini")] + ".json"
            if os.path.exists(out):
                os.remove(out)
            code = kreinext.cli.main([self.command, "--config", self.config, "--out", out])
            if not os.path.exists(out):
                return {"exit": code, "report": None}
            with open(out) as handle:
                return {"exit": code, "report": json.load(handle)}
        if self.kind == "run":
            args = kreinext.cli.build_arg_parser().parse_args(
                [self.command, "--config", self.config])
            code, report = kreinext.cli.run(kreinext.cli.config_from_args(args))
            return {"exit": code, "report": report}
        if self.build is not None:
            system = self.build()
        else:
            system = kreinext.cli.build_system(kreinext.cli.load_config_file(self.config))
        return {"exit": 0, "report": library_pipeline(system)}


def run_job(job: Job) -> dict:
    """The job's outcome; an exception becomes an ``error`` outcome."""
    try:
        return job.call()
    except Exception:  # a job boundary: every traceback is a failed job
        return {"error": traceback.format_exc()}


def _preset(name: str, **fields) -> str:
    lines = ["[operator]", f"preset = {name}"]
    lines += [f"{key} = {value}" for key, value in fields.items()]
    return "\n".join(lines) + "\n"


def library_pipeline(system) -> dict:
    """The README "Library" pipeline at lambda = 0, its certificates and the
    all-pairs bracket constancy, as a report shaped like the CLI's."""
    validation = kx.validate_hypothesis(system)
    fm = kx.fundamental_matrix(system)
    basis = kx.kernel_basis(system, fm)
    krein = kx.build_krein_pair(basis)
    B_inv = kx.invert_B(krein)
    T_K = kx.transfer_matrix(krein, B_inv)
    fried = kx.friedrichs_pair(system.M, system.N)
    sa_k = kx.verify_self_adjoint(krein)
    sa_f = kx.verify_self_adjoint(fried)
    prime, _ = kx.relative_primeness(krein, fried)
    cols = [kx.SolutionTraces(fm, basis.C[:, [j]]) for j in range(system.size)]
    worst = max(kx.check_bracket_constancy(f, g) for f in cols for g in cols)
    return {
        "validation": {"passed": validation.passed},
        "matrices": {"T_K": T_K},
        "checks": {
            "krein_self_adjoint": {"verdict": sa_k.verdict},
            "friedrichs_self_adjoint": {"verdict": sa_f.verdict},
            "relatively_prime": {"verdict": prime},
            "bracket_constancy_worst": worst,
        },
    }


def seeded_operators(seed: int) -> dict:
    """Config text and oracle of the two seeded variable-coefficient operators.

    four-coeff: -(p y')' + q y = lambda r y with p = 1+a x, q = b+c x^2,
    r = 1+d x on [0, 1].  The Rayleigh quotient puts lambda_min in
    [(pi^2 min p + min q) / max r, (pi^2 max p + max q) / min r], inside
    [8.5, 14.1] for every draw, so the scan at lambda_max = 50 always
    locates it.

    fourth-order: (P y'')'' + q y = lambda W y with P = 1+a x^2 (so
    Z.2.3 = 1/P), q = b+c sin(x), W = 1+d x on [0, 1].  lambda_min is at
    least mu^4 min P / max W > 417, so the default scan (to 100) never
    locates it.

    Every draw thus runs the same code paths, and the ranges are narrow so
    that every draw costs about the same.
    """
    rng = random.Random(seed)
    a, b, c, d = (round(rng.uniform(low, high), 4)
                  for low, high in ((0.2, 0.3), (0.4, 0.6), (0.4, 0.6), (0.1, 0.2)))
    four_coeff = (
        "[operator]\npreset = four-coeff\ninterval = 0, 1\n"
        f"p = 1+{a}*x\nq = {b}+{c}*x^2\nr = 1+{d}*x\n\n"
        "[tolerances]\nlambda_max = 50\n"
    )
    lo = (PI2 + b) / (1 + d)
    hi = PI2 * (1 + a) + b + c
    a, b, c, d = (round(rng.uniform(low, high), 4)
                  for low, high in ((0.2, 0.3), (0.9, 1.1), (0.4, 0.6), (0.1, 0.2)))
    fourth = (
        "[operator]\norder = 4\ninterval = 0, 1\n"
        f"Z.1.2 = 1\nZ.2.3 = 1/(1+{a}*x^2)\nZ.3.4 = 1\n"
        f"Z.4.1 = -({b}+{c}*sin(x))\nW = 1+{d}*x\n"
    )
    return {
        "four-coeff": (four_coeff, ("between", lo, hi)),
        "fourth-order": (fourth, ("none_below", DEFAULT_LAMBDA_MAX)),
    }


def make_jobs(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's config files under ``workdir``; return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    seeded = seeded_operators(seed)
    jobs = []

    def add(name, text, kind, expect, command="", build=None):
        config = os.path.join(workdir, f"{name}.ini")
        with open(config, "w") as handle:
            handle.write(text)
        jobs.append(Job(name, kind, config, expect, command, build))

    pure2 = _preset("pure", order=2, interval="0, 1")
    pure2_expect = {"verify": True, "certified": True,
                    "T_K": (pure_toeplitz(2, 1.0), TK_ABS_TOL, "abs"),
                    "lambda_min": ("value", PI2, LAMBDA_TOL)}
    fourth = _preset("fourth-order")
    fourth_expect = {"verify": True, "certified": True,
                     "T_K": (fourth_order_tk(), TK_REL_TOL, "rel"),
                     "lambda_min": ("value", fourth_order_lambda(),
                                    fourth_order_lambda_tol())}
    four_coeff = _preset("four-coeff", interval="0, 1", p=1, q=1, r=1)
    four_coeff_expect = {"verify": True, "certified": True,
                         "T_K": (cosh_sinh_tk(1.0), TK_ABS_TOL, "abs"),
                         "lambda_min": ("value", 1 + PI2, LAMBDA_TOL)}
    readme_expect = {"certified": True, "lambda_min": ("between", PI2 + 1, PI2 + 2)}
    seeded_text, seeded_bounds = seeded["four-coeff"]
    seeded_expect = {"certified": True, "lambda_min": seeded_bounds}

    if workload == "scan":
        # constant operators: verify at the default scan bound
        add("verify-four-coeff-m1", four_coeff, "run", four_coeff_expect, "verify")
        add("verify-pure-4", _preset("pure", order=4, interval="0, 1"), "cli",
            {"verify": True, "certified": True,
             "T_K": (pure_toeplitz(4, 1.0), TK_ABS_TOL, "abs"),
             "lambda_min": ("none_below", DEFAULT_LAMBDA_MAX)}, "verify")
        add("verify-pure-2", pure2, "run", pure2_expect, "verify")
        add("verify-fourth-order", fourth, "run", fourth_expect, "verify")
        # variable-coefficient operators: compute
        add("compute-readme", README_CONFIG, "run", readme_expect, "compute")
        add("compute-four-coeff-seeded", seeded_text, "run", seeded_expect, "compute")
        text, bounds = seeded["fourth-order"]
        add("compute-fourth-order-seeded", text, "cli",
            {"certified": True, "lambda_min": bounds}, "compute")
    elif workload == "pipeline-exact":
        for N in (1, 2, 3):
            add(f"pipeline-pure-{2 * N}", _preset("pure", order=2 * N, interval="0, 1"),
                "pipeline",
                {"bracket": True, "T_K": (pure_toeplitz(2 * N, 1.0), TK_ABS_TOL, "abs")},
                build=lambda N=N: kx.preset_pure(N, (0.0, 1.0)))
        add("pipeline-fourth-order", fourth, "pipeline",
            {"bracket": True, "T_K": (fourth_order_tk(), TK_REL_TOL, "rel")},
            build=kx.preset_fourth_order)
        for M in (1, 2, 3):
            add(f"pipeline-four-coeff-m{M}",
                _preset("four-coeff", block_size=M, interval="0, 1", p=1, q=1, r=1),
                "pipeline",
                {"bracket": True, "T_K": (cosh_sinh_tk(1.0, M), TK_ABS_TOL, "abs")},
                build=lambda M=M: kx.preset_four_coeff(1, 1, 1, 0, (0.0, 1.0), M=M))
        for name, (text, _) in seeded.items():
            add(f"pipeline-{name}-seeded", text, "pipeline", {"bracket": True})
        for order in range(2, 22, 2):
            add(f"closed-form-{order}", f"[operator]\norder = {order}\ninterval = 0, 1\n",
                "cli", {"closed_form": order}, "closed-form")
    elif workload == "known-defects":
        # Each job expects the correct result; at the seed commit each one
        # fails, which is why none of them is in a timed workload.
        add("verify-pure-2", pure2, "cli", pure2_expect, "verify")
        add("verify-fourth-order", fourth, "cli", fourth_expect, "verify")
        add("verify-four-coeff-m1", four_coeff, "cli", four_coeff_expect, "verify")
        add("compute-readme", README_CONFIG, "cli", readme_expect, "compute")
        add("compute-four-coeff-seeded", seeded_text, "cli", seeded_expect, "compute")
        add("verify-pure-8", _preset("pure", order=8, interval="0, 1"), "cli",
            {"verify": True, "certified": True,
             "T_K": (pure_toeplitz(8, 1.0), TK_ABS_TOL, "abs")}, "verify")
        add("verify-four-coeff-minus-20",
            _preset("four-coeff", interval="0, 1", p=1, q=-20, r=1), "run",
            {"certified": False}, "verify")
        add("pipeline-pure-10", _preset("pure", order=10, interval="0, 1"), "pipeline",
            {"bracket": True, "T_K": (pure_toeplitz(10, 1.0), TK_ABS_TOL, "abs")},
            build=lambda: kx.preset_pure(5, (0.0, 1.0)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
