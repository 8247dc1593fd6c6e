"""Command-line front end.

Reads an operator description (preset or explicit coefficient expressions),
runs the requested tasks, and emits a deterministic JSON report.  Complex
numbers are serialized as two-element [re, im] arrays and matrices as
row-major nested arrays.

Each job setting, from a config file or a flag, is read and checked by its
row of ``SETTINGS``; a flag overrides the file.  Each operator is a row of
``OPERATORS`` and each task a row of ``TASK_SECTIONS``.

Exit codes: 0 success, 1 validation failure, 2 numerical failure (also out
of memory), 3 configuration error (also a config file that is not valid
INI, a report that cannot be written, to a path or to stdout, a bad
order or interval, and a key or setting the operator does not read).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import exact, extension, spectral
from .brackets import SolutionTraces, check_bracket_constancy
from .errors import (
    EvaluationError,
    ExprSyntaxError,
    GammaBijectivityError,
    IntegrationError,
    KreinExtError,
    NumericalError,
    StructureError,
)
from .integration import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, fundamental_matrix
from .system import (
    MatrixFn,
    ShinZettlSystem,
    _as_interval,
    preset_four_coeff,
    preset_fourth_order,
    preset_pure,
    validate_hypothesis,
)

DEFAULT_LAMBDA_MAX = 100.0


class ConfigError(KreinExtError):
    pass


@dataclass
class JobConfig:
    preset: Optional[str] = None
    order: Optional[int] = None
    block_size: Optional[int] = None  # unset is M = 1
    interval: Optional[tuple] = None  # exact endpoints (Fractions)
    coefficients: dict = field(default_factory=dict)  # p, q, r, s or W / Z.j.k
    tasks: list = field(default_factory=list)
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    lambda_max: float = DEFAULT_LAMBDA_MAX
    out: Optional[str] = None


def _half_order(order, what: str) -> int:
    """N of an even order 2N >= 2."""
    if order is None or order % 2 != 0 or order < 2:
        raise ConfigError(f"{what} requires an even order >= 2, got {order}")
    return order // 2


def _interval(cfg: JobConfig, what: str) -> tuple:
    if cfg.interval is None:
        raise ConfigError(f"{what} requires an interval")
    return cfg.interval


def _four_coeff(cfg: JobConfig, what: str) -> ShinZettlSystem:
    coeff = {"p": "1", "q": "1", "r": "1", "s": "0", **cfg.coefficients}
    return preset_four_coeff(**coeff, interval=_interval(cfg, what), M=cfg.block_size or 1)


def _explicit(cfg: JobConfig, what: str) -> ShinZettlSystem:
    """Scalar entries Z.j.k (0 when not given) and W (block size 1)."""
    N = _half_order(cfg.order, what)
    interval = _interval(cfg, what)
    n = 2 * N
    entries = [[MatrixFn.scalar(0.0)] * n for _ in range(n)]
    for key, value in cfg.coefficients.items():
        if key == "W":
            continue
        try:
            _, j, k = key.split(".")
            j, k = int(j), int(k)
        except ValueError as exc:
            raise ConfigError(f"bad coefficient key {key!r}") from exc
        if not (1 <= j <= n and 1 <= k <= n):
            raise ConfigError(f"coefficient key {key!r} out of range")
        entries[j - 1][k - 1] = MatrixFn.scalar(value)
    W = MatrixFn.scalar(cfg.coefficients.get("W", "1"))
    return ShinZettlSystem(M=1, N=N, interval=_as_interval(interval), W=W, Z=entries)


# each operator: what it reads besides its interval, and its builder taking
# the job and the operator's name for errors; None is the explicit operator
OPERATORS = {
    "pure": (("order",), lambda cfg, what: preset_pure(_half_order(cfg.order, what),
                                                      cfg.interval or (0.0, 1.0))),
    "fourth-order": ((), lambda cfg, what: preset_fourth_order(cfg.interval)),
    "four-coeff": (("block_size", "p", "q", "r", "s"), _four_coeff),
    None: (("order", "W", "Z.j.k"), _explicit),
}

# the report sections each task writes: 'validation' is the operator and its
# hypothesis checks, 'scan' the positivity scan and the certificates of both
# pairs, 'krein' and 'friedrichs' the pairs' matrices, 'verify' the
# verify-all checks.  Each section uses what the one before it computed
# ('verify' needs 'scan', which needs 'validation'), so a row lists every
# section up to its last.
TASK_SECTIONS = {
    "validate": {"validation"},
    "krein": {"validation", "scan", "krein"},
    "friedrichs": {"validation", "scan", "friedrichs"},
    "spectrum": {"validation", "scan"},
    "closed-form": {"closed_form"},
    "verify-all": {"validation", "scan", "krein", "friedrichs", "verify"},
}


def _as_jsonable(value):
    """What ``json`` cannot write itself: an array as rows of [re, im], a
    complex number as [re, im], a Fraction as its text, and a numpy scalar
    as its Python value."""
    if isinstance(value, np.ndarray):
        rows = np.atleast_2d(value).astype(complex)
        return np.stack([rows.real, rows.imag], axis=-1).tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _checked(convert, ok):
    """A parser that converts a text and requires ``ok`` of the value."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return parse


def _parse_interval(text: str) -> tuple:
    """The endpoints as exact rationals: decimals of any length and p/q."""
    a, b = map(Fraction, text.replace(",", " ").split())
    _as_interval((a, b))  # finite, a < b
    return a, b


# the job settings: config section, flag, what a value must be (the flag's
# help), and the parser that converts a text and checks its range
Setting = namedtuple("Setting", "section flag accepts parse")
_tolerance = _checked(float, lambda tol: 0 < tol < 1)
SETTINGS = {
    "preset": Setting("operator", "--preset", "one of " + ", ".join(filter(None, OPERATORS)),
                      _checked(str, lambda name: name in OPERATORS)),
    "order": Setting("operator", "--order", "an even integer 2N >= 2", int),
    "block_size": Setting("operator", "--block-size", "an integer M >= 1",
                          _checked(int, lambda m: m >= 1)),
    "interval": Setting("operator", "--interval", "'a,b' with finite a < b (decimals or p/q)",
                       _parse_interval),
    "rel_tol": Setting("tolerances", "--rel-tol", "a number in (0, 1)", _tolerance),
    "abs_tol": Setting("tolerances", "--abs-tol", "a number in (0, 1)", _tolerance),
    "lambda_max": Setting("tolerances", "--lambda-max", "a scan bound in (0, inf)",
                          _checked(float, lambda lam: 0 < lam < np.inf)),
    "tasks": Setting("tasks", "--task", "task names from " + ", ".join(TASK_SECTIONS),
                     _checked(lambda text: text.replace(",", " ").split(),
                              lambda names: set(names) <= TASK_SECTIONS.keys())),
}


def _read(name: str, text: str):
    """The checked value of setting ``name`` given as ``text``."""
    try:
        return SETTINGS[name].parse(text)
    except (ValueError, ArithmeticError, StructureError) as exc:
        raise ConfigError(f"{name} must be {SETTINGS[name].accepts}, got {text!r}") from exc


def load_config_file(path: str) -> JobConfig:
    # values are coefficient expressions, where '%' is not an interpolation
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep Z.j.k key case and dots intact
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages span several lines
        raise ConfigError(f"bad config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = JobConfig()
    sections = {setting.section for setting in SETTINGS.values()}
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"unknown config section [{name}]")
        for key, text in parser[name].items():
            if key in SETTINGS and SETTINGS[key].section == name:
                setattr(cfg, key, _read(key, text))
            elif name == "operator":
                cfg.coefficients[key] = text
            else:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
    return cfg


def _check_reads(cfg: JobConfig, operator: Optional[str], what: str):
    """Reject a preset other than ``operator`` and each setting it does not read."""
    if cfg.preset not in (None, operator):
        raise ConfigError(f"{what} reads no preset {cfg.preset!r}")
    reads, _ = OPERATORS[operator]
    given = [key for key in ("order", "block_size") if getattr(cfg, key) is not None]
    for key in given + list(cfg.coefficients):
        if ("Z.j.k" if key.startswith("Z.") else key) not in reads:
            raise ConfigError(f"{what} reads no setting {key!r}")


def build_system(cfg: JobConfig) -> ShinZettlSystem:
    """The configured system; a setting the operator does not read and a
    structurally invalid configuration are configuration errors."""
    what = f"the {cfg.preset or 'explicit'} operator"
    _check_reads(cfg, cfg.preset, what)
    try:
        return OPERATORS[cfg.preset][1](cfg, what)
    except StructureError as exc:
        raise ConfigError(str(exc)) from exc


def run(cfg: JobConfig):
    """Execute the configured tasks; returns (exit_code, report dict).  The report
    holds library values (arrays, Fractions, numpy scalars) as they are."""
    if not cfg.tasks:
        raise ConfigError("no tasks requested")
    wanted = set().union(*(TASK_SECTIONS[task] for task in cfg.tasks))
    report = {"tasks": list(cfg.tasks), "tolerances": {
        "rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol}}
    hard_checks = []

    if "closed_form" in wanted:
        # the closed forms are those of the pure operator
        _check_reads(cfg, "pure", "the closed-form task")
        N = _half_order(cfg.order, "the closed-form task")
        interval = cfg.interval or (0, 1)
        ok = exact.verify_factorization(N, interval)
        report["closed_form"] = {"order": 2 * N, "factorization_ok": ok,
                                 "T_K": exact.toeplitz_TK(N, interval)}
        hard_checks.append(ok)

    if "validation" in wanted:
        sys_ = build_system(cfg)
        report["operator"] = {"M": sys_.M, "N": sys_.N, "order": sys_.order, "preset": cfg.preset,
                              "interval": [sys_.interval.a, sys_.interval.b]}
        validation = validate_hypothesis(sys_)
        report["validation"] = {"passed": validation.passed, "samples": validation.samples,
                                "checks": {c.name: {"worst": c.worst, "threshold": c.threshold,
                                                    "mode": c.mode, "ok": c.ok}
                                           for c in validation.checks}}
        if not validation.passed:
            return 1, report

    if "scan" in wanted:
        scan = spectral.lowest_friedrichs_eigenvalue(sys_, cfg.lambda_max,
                                                     rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
        certified = scan.certified_strictly_positive
        if not certified:
            note = (f"{scan.eigenvalues_below_margin} Friedrichs eigenvalue(s) at or below "
                    f"the margin {spectral.POSITIVITY_MARGIN:g}; the lowest is not located")
        elif scan.lambda_min is None:
            note = ("no eigenvalue in [0, scan_bound]; the eigenvalue count at the margin "
                    "certifies positivity with no bound")
        else:
            note = "lowest Friedrichs eigenvalue located"
        report["positivity"] = {
            "certified_strictly_positive": certified,
            "lambda_min": scan.lambda_min,
            "scan_bound": scan.scan_bound,
            "note": note,
            "eigenvalues_below_margin": scan.eigenvalues_below_margin,
            "count_steps": scan.count_steps,
            "largest_step_angle": scan.largest_step_angle,
        }
        if not certified:
            report["positivity"]["warning"] = (
                "strict positivity not certified; boundary matrices are emitted "
                "under the 'candidate' label and may not define the smallest "
                "nonnegative extension"
            )

        fm = fundamental_matrix(sys_, lam=0.0, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
        basis = extension.kernel_basis(sys_, fm)
        krein = extension.build_krein_pair(basis)
        B_inv = extension.invert_B(krein)
        T_K = extension.transfer_matrix(krein, B_inv)
        fried = extension.friedrichs_pair(sys_.M, sys_.N)
        sa_k = extension.verify_self_adjoint(krein)
        sa_f = extension.verify_self_adjoint(fried)
        matrices = report["matrices"] = {}
        if "krein" in wanted:
            # the label also needs the pair to pass its own self-adjointness check
            matrices.update(A_K=krein.A, B_K=krein.B, B_K_inv=B_inv, T_K=T_K,
                            role="Krein--von Neumann" if certified and sa_k.verdict
                            else "candidate",
                            conditioning=basis.conditioning)
        if "friedrichs" in wanted:
            matrices["friedrichs"] = {"A": fried.A, "B": fried.B, "role": "Friedrichs",
                                      "positivity_certified": certified}

        prime, null_dim = extension.relative_primeness(krein, fried)
        checks = report["checks"] = {
            "krein_self_adjoint": asdict(sa_k),
            "friedrichs_self_adjoint": asdict(sa_f),
            "relatively_prime": {"verdict": prime, "common_nullspace_dim": null_dim},
        }
        hard_checks += [sa_k.verdict, sa_f.verdict, prime]

    if "verify" in wanted:
        # entry (i, j) of [F, F] is the bracket of basis columns j and i
        F = SolutionTraces(fm, basis.C)
        worst = check_bracket_constancy(F, F)
        member, residuals = extension.membership(krein, basis.C, basis.Eb)
        checks.update(
            gamma_reconstruction_residual=basis.residual,
            b_inverse_product_residual=np.linalg.norm(B_inv @ krein.B - np.eye(sys_.size)),
            bracket_constancy_worst=worst,
            kernel_membership_ok=member.all(),
        )
        if not member.all():
            checks["membership_failures"] = [
                {"column": col, "residual": residuals[col]} for col in np.flatnonzero(~member)]
        hard_checks += [member.all(), worst <= extension.GATE]
    return (0 if all(hard_checks) else 2), report


def write_report(report: dict, out: Optional[str]):
    text = json.dumps(report, indent=2, sort_keys=True, default=_as_jsonable)
    if not out:
        try:
            print(text, flush=True)
        except OSError as exc:
            # the interpreter flushes stdout again at exit, and would fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError(f"cannot write the report to stdout: {exc.strerror}") from exc
        return
    try:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {out}: {exc.strerror}") from exc


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a command line that does not parse as a configuration error
    (exit 3) instead of argparse's usage message and exit 2."""

    def error(self, message):
        raise ConfigError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads a value that starts with '-' as an option, so a
        # negative left endpoint after --interval is joined to the flag
        flag = SETTINGS["interval"].flag
        joined = []
        for token in sys.argv[1:] if args is None else args:
            if joined and joined[-1] == flag and token[:1] == "-" and token[:2] != "--":
                joined[-1] = f"{flag}={token}"
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


# each command and the tasks it runs when neither --task nor the config names any
COMMANDS = {
    "compute": ["validate", "krein"],
    "verify": ["validate", "verify-all"],
    "closed-form": ["closed-form"],
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="krein-ext",
        description="boundary-condition matrices for Krein-von Neumann extensions",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a config file")
    for name, setting in SETTINGS.items():  # --task repeats, once per task
        parser.add_argument(setting.flag, dest=name, help=setting.accepts,
                            action="append" if name == "tasks" else "store")
    parser.add_argument("--out", help="write the JSON report to this path")
    return parser


def config_from_args(args) -> JobConfig:
    """The config file's settings, each overridden by its flag if given."""
    cfg = load_config_file(args.config) if args.config else JobConfig()
    for name in SETTINGS:
        text = getattr(args, name)  # a list of texts for a repeated flag
        if text is not None:
            setattr(cfg, name, _read(name, text if isinstance(text, str) else " ".join(text)))
    cfg.tasks = cfg.tasks or list(COMMANDS[args.command])
    cfg.out = args.out
    return cfg


def main(argv=None) -> int:
    try:
        cfg = config_from_args(build_arg_parser().parse_args(argv))
        code, report = run(cfg)
        write_report(report, cfg.out)
    except (ConfigError, ExprSyntaxError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (GammaBijectivityError, IntegrationError, NumericalError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, StructureError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
