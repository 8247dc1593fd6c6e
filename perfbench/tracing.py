"""Tracing of the program from the benchmark's own files.

`Tracer.install` wraps the public functions of each kreinext module at
every module attribute the program calls them through (a function
imported into several modules is wrapped in each).  Every call of a
wrapped function records a span: name, start, end, parent span and job.
`kreinext.expressions.evaluate` is only counted, and the `solve_ivp`
that `kreinext.integration` calls is wrapped to read its `nfev`.  Spans
are kept in memory as columns and written out once, at the end.

A span's self time is its duration minus the part of it its child spans
cover.  Each per-layer `_s` metric is the summed self time of its
functions, so the layers add up without double counting; time in code
that is not wrapped counts to the nearest wrapped caller.  A metric whose
functions no longer exist in the program is reported as absent.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# per-layer time metrics: summed self time of these spans
SELF_TIME = {
    "expressions.parse_s": ("expressions.parse",),
    "system.companion_s": ("system.companion_matrix",),
    "system.validate_s": ("system.validate_hypothesis",),
    "integration.propagate_s": ("integration.fundamental_matrix", "integration.solve_ivp",
                                "integration.trace_at"),
    "spectral.scan_s": ("spectral.lowest_friedrichs_eigenvalue",
                        "spectral.friedrichs_char_value", "spectral._golden_minimize"),
    "extension.kernel_pair_s": ("extension.kernel_basis", "extension.build_krein_pair",
                                "extension.invert_B", "extension.transfer_matrix",
                                "extension.friedrichs_pair", "extension.lambda_matrix",
                                "extension.gamma_map", "extension.phi_blocks"),
    "extension.certify_s": ("extension.verify_self_adjoint", "extension.relative_primeness",
                            "extension.membership"),
    "brackets.constancy_s": ("brackets.check_bracket_constancy", "brackets.lagrange_bracket"),
    "exact.factorization_s": ("exact.verify_factorization",),
    "exact.toeplitz_s": ("exact.toeplitz_TK",),
    "cli.run_self_s": ("cli.main", "cli.run", "cli.config_from_args", "cli.load_config_file",
                       "cli.build_system"),
    "cli.serialize_s": ("cli.write_report",),
}
# every function recorded as a span, "<module>.<function>"
SPANNED = tuple(name for names in SELF_TIME.values() for name in names)
COUNTED = ("expressions.evaluate",)
# per-layer count metrics and the functions they need
COUNTS = {
    "expressions.evaluate_calls": ("expressions.evaluate",),
    "system.companion_calls": ("system.companion_matrix",),
    "integration.propagations": ("integration.fundamental_matrix",),
    "integration.rhs_evals": ("integration.solve_ivp",),
    "integration.trajectory_mb": ("integration.fundamental_matrix",),
    "spectral.char_evals": ("spectral.friedrichs_char_value",),
    "spectral.refine_evals": ("spectral._golden_minimize",),
    "spectral.refine_share": ("spectral._golden_minimize",),
    "brackets.pairs": ("brackets.check_bracket_constancy",),
    "cli.serialize_failures": ("cli.write_report",),
}
UNITS = {"integration.trajectory_mb": "MB", "spectral.refine_share": "ratio"}


def metric_unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def self_times(starts, ends, parents) -> list:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    out = [end - start for start, end in zip(starts, ends)]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered, run_start, run_end = 0.0, None, None
        for start, end in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out


class Tracer:
    """Spans and counts of the traced runs; `install` / `uninstall` wrap and
    restore the program's functions and may be called repeatedly."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("i")
        self.raised = []
        self.stack = []
        self.current_job = -1
        self.counts = {}
        self.rhs_evals = 0
        self.trajectory_bytes = 0
        self.present = set()
        self._restore = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int):
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn, on_result):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised.append(index)
                raise
            finally:
                tracer.finish(index)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_solve(self, sol):
        self.rhs_evals += int(sol.nfev)

    def _on_propagate(self, fm):
        self.trajectory_bytes += fm.values.nbytes

    def install(self):
        """Wrap every listed function at each kreinext module attribute
        bound to it; names the program no longer has are skipped."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "kreinext" or key.startswith("kreinext."))]
        hooks = {"integration.solve_ivp": self._on_solve,
                 "integration.fundamental_matrix": self._on_propagate}
        for name in SPANNED + COUNTED:
            module_name, fname = name.split(".")
            home = sys.modules.get(f"kreinext.{module_name}")
            original = getattr(home, fname, None)
            if original is None or not callable(original):
                continue
            self.present.add(name)
            if name in COUNTED:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._spanned(name, original, hooks.get(name))
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    self._restore.append((mod, fname, original))

    def uninstall(self):
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()

    def self_times(self) -> list:
        return self_times(self.start, self.end, self.parent)

    def metrics(self) -> tuple:
        """(metrics, absent): per-layer values by name, and the names of
        metrics whose functions the program no longer has."""
        selfs = self.self_times()
        per_name = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for name_id, value in zip(self.name, selfs):
            per_name[name_id] += value
            calls[name_id] += 1

        def total(name):
            i = self.name_ids.get(name)
            return (per_name[i], calls[i]) if i is not None else (0.0, 0)

        values = {metric: sum(total(n)[0] for n in names)
                  for metric, names in SELF_TIME.items()}
        refine_id = self.name_ids.get("spectral._golden_minimize")
        char_id = self.name_ids.get("spectral.friedrichs_char_value")
        refine = 0
        if refine_id is not None and char_id is not None:
            for index, name_id in enumerate(self.name):
                if name_id == char_id:
                    parent = self.parent[index]
                    while parent >= 0 and self.name[parent] != refine_id:
                        parent = self.parent[parent]
                    refine += parent >= 0
        char = total("spectral.friedrichs_char_value")[1]
        write_id = self.name_ids.get("cli.write_report")
        values.update({
            "expressions.evaluate_calls": self.counts.get("expressions.evaluate", 0),
            "system.companion_calls": total("system.companion_matrix")[1],
            "integration.propagations": total("integration.fundamental_matrix")[1],
            "integration.rhs_evals": self.rhs_evals,
            "integration.trajectory_mb": self.trajectory_bytes / 2**20,
            "spectral.char_evals": char,
            "spectral.refine_evals": refine,
            "spectral.refine_share": refine / char if char else 0.0,
            "brackets.pairs": total("brackets.check_bracket_constancy")[1],
            "cli.serialize_failures": sum(self.name[i] == write_id for i in self.raised),
        })
        needs = {**SELF_TIME, **COUNTS}
        absent = sorted(m for m, names in needs.items()
                        if not any(n in self.present for n in names))
        return {m: v for m, v in values.items() if m not in absent}, absent

    def write(self, path: str, job_names: list):
        """Write the spans (columns plus self times) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            jobs=np.array(job_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int32),
            self_time=np.array(self.self_times()),
        )
