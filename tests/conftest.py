"""Shared fixtures: presets and the full boundary-matrix pipeline."""

import numpy as np
import pytest

import kreinext as kx
from kreinext import cli

PRESETS = {
    "pure-1": lambda: kx.preset_pure(1, (0.0, 1.0)),
    "pure-2": lambda: kx.preset_pure(2, (0.0, 1.0)),
    "pure-3": lambda: kx.preset_pure(3, (0.0, 1.0)),
    "fourth-order": kx.preset_fourth_order,
    "four-coeff": lambda: kx.preset_four_coeff(1, 1, 1, 0, (0.0, 1.0)),
}

# variable-coefficient operators as config files: the README example
# verbatim, the benchmark's two seeded operators at seed 1, a block size 2
# four-coefficient operator, and one with a complex coefficient
VARIABLE_OPERATORS = {
    "readme": (
        "[operator]\norder = 2\ninterval = 0, 1\nZ.1.2 = 1\nZ.2.1 = 1+x^2\nW = 1\n"
        "[tolerances]\nrel_tol = 1e-10\nlambda_max = 50\n"
        "[tasks]\ntasks = validate, krein, friedrichs\n"
    ),
    "four-coeff-seeded": (
        "[operator]\npreset = four-coeff\ninterval = 0, 1\n"
        "p = 1+0.2134*x\nq = 0.5695+0.5528*x^2\nr = 1+0.1255*x\n"
        "[tolerances]\nlambda_max = 50\n"
    ),
    "fourth-order-seeded": (
        "[operator]\norder = 4\ninterval = 0, 1\n"
        "Z.1.2 = 1\nZ.2.3 = 1/(1+0.2495*x^2)\nZ.3.4 = 1\n"
        "Z.4.1 = -(0.9899+0.5303*sin(x))\nW = 1+0.1789*x\n"
    ),
    "four-coeff-m2": (
        "[operator]\npreset = four-coeff\ninterval = 0, 1\nblock_size = 2\n"
        "p = 1\nq = 1+x\nr = 1\ns = 0\n"
    ),
    "four-coeff-complex": (
        "[operator]\npreset = four-coeff\ninterval = 0, 1\n"
        "p = 1+x\nq = 1\nr = 1\ns = 0.5*i*(1+x)\n"
    ),
}


@pytest.fixture(scope="session")
def variable_systems(tmp_path_factory):
    """The VARIABLE_OPERATORS systems, built from their config files."""
    root = tmp_path_factory.mktemp("operators")
    systems = {}
    for name, text in VARIABLE_OPERATORS.items():
        path = root / f"{name}.ini"
        path.write_text(text)
        systems[name] = cli.build_system(cli.load_config_file(str(path)))
    return systems


class Pipeline:
    """Everything the boundary-matrix computation produces for one system."""

    def __init__(self, sys):
        self.sys = sys
        self.fm = kx.fundamental_matrix(sys)
        self.basis = kx.kernel_basis(sys, self.fm)
        self.krein = kx.build_krein_pair(self.basis)
        self.B_inv = kx.invert_B(self.krein)
        self.T = kx.transfer_matrix(self.krein, self.B_inv)
        self.friedrichs = kx.friedrichs_pair(sys.M, sys.N)


@pytest.fixture(scope="session")
def pipelines():
    return {name: Pipeline(build()) for name, build in PRESETS.items()}


@pytest.fixture(params=sorted(PRESETS))
def pipeline(request, pipelines):
    return pipelines[request.param]


def assert_allclose(actual, expected, tol, message=""):
    actual = np.asarray(actual, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    worst = float(np.abs(actual - expected).max())
    assert worst <= tol, f"{message} worst deviation {worst:.3e} > {tol:.1e}"
