"""Command-line interface: argument handling, config files, reports,
and exit codes."""

import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import kreinext as kx
from kreinext import cli, exact

from conftest import VARIABLE_OPERATORS, assert_allclose


# configs with a misspelled key or section, by the name the error must give;
# each would otherwise leave the operator or the scan silently at its default
UNREAD_KEYS = {
    "qq": "[operator]\npreset = four-coeff\ninterval = 0, 1\np = 1\nqq = -20\nr = 1\n",
    "lamda_max": "[operator]\npreset = pure\norder = 2\ninterval = 0, 1\n"
                 "[tolerances]\nlamda_max = 5\n",
    "Z2.1": "[operator]\norder = 2\ninterval = 0, 1\nZ.1.2 = 1\nZ2.1 = 1\n",
    "tolerance": "[operator]\npreset = pure\norder = 2\ninterval = 0, 1\n"
                 "[tolerance]\nlambda_max = 5\n",
}

# command lines that set what their operator does not read: the case, the
# text naming the setting that the error must contain, and the arguments
UNREAD_SETTINGS = [
    ("fourth_order_order", "'order'",
     ["compute", "--preset", "fourth-order", "--order", "6", "--task", "validate"]),
    ("pure_block_size", "'block_size'",
     ["compute", "--preset", "pure", "--order", "2", "--block-size", "3"]),
    ("four_coeff_order", "'order'",
     ["compute", "--preset", "four-coeff", "--order", "4", "--interval", "0,1"]),
    ("closed_form_preset", "preset 'four-coeff'",
     ["closed-form", "--preset", "four-coeff", "--order", "4"]),
]

# config files that are not valid INI, by case: no section header, an
# unclosed section header, a duplicate key, a duplicate section, and the
# first 64 bytes of an x86-64 ELF executable (not UTF-8)
MALFORMED_CONFIGS = {
    "no_section_header": "order = 2\ninterval = 0, 1\n",
    "unclosed_section": "[tasks]\ntasks = validate\n[operator\norder = 2\n",
    "duplicate_key": "[operator]\norder = 2\norder = 4\n",
    "duplicate_section": "[operator]\norder = 2\n[operator]\ninterval = 0, 1\n",
    "percent_in_value": "[operator]\norder = 2%\n",
    "percent_in_expression": "[operator]\npreset = four-coeff\ninterval = 0, 1\np = 1%\n",
    "interpolation_reference": "[operator]\norder = 2\ninterval = 0, 1\nZ.1.2 = %(x)s\n",
    "binary_file": bytes.fromhex(
        "7f454c4602010100000000000000000003003e0001000000d061000000000000"
        "4000000000000000704702000000000000000000400038000d0040001f001e00"),
}

# two valid texts of each job setting, for the config file and the flag
SETTING_TEXTS = {
    "preset": ("pure", "four-coeff"),
    "order": ("4", "6"),
    "block_size": ("2", "3"),
    "interval": ("0, 2", "1,3"),
    "rel_tol": ("1e-9", "0.5"),
    "abs_tol": ("1e-11", "1e-3"),
    "lambda_max": ("20", "1e3"),
    "tasks": ("friedrichs, spectrum", "verify-all"),
}


def run_cli(args):
    return cli.main(args)


def as_complex(report_matrix):
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in report_matrix]
    )


class TestComputeCommand:
    def test_pure_second_order_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            [
                "compute",
                "--preset",
                "pure",
                "--order",
                "2",
                "--interval",
                "0,1",
                "--lambda-max",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["operator"]["order"] == 2
        assert report["validation"]["passed"]
        assert_allclose(as_complex(report["matrices"]["T_K"]), [[1, 1], [0, 1]], 1e-8)
        assert report["matrices"]["role"] == "Krein--von Neumann"

    def test_fourth_order_transfer_diagonal(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["compute", "--preset", "fourth-order", "--task", "validate",
             "--task", "krein", "--lambda-max", "0.2", "--rel-tol", "1e-8",
             "--abs-tol", "1e-10", "--out", str(out)]
        )
        assert code == 0
        T = as_complex(json.loads(out.read_text())["matrices"]["T_K"])
        assert_allclose(np.diag(T), [-np.cosh(np.pi)] * 4, 1e-6)

    def test_stdout_report(self, capsys):
        code = run_cli(
            ["compute", "--preset", "pure", "--order", "2", "--interval", "0,1",
             "--task", "validate"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["validation"]["passed"]

    def test_readme_command_default_lambda_max(self, tmp_path):
        # the README example at the default scan bound locates the lowest
        # Dirichlet eigenvalue pi^2, so the report carries scan results
        out = tmp_path / "report.json"
        code = run_cli(
            ["compute", "--preset", "pure", "--order", "2", "--interval", "0,1",
             "--out", str(out)]
        )
        assert code == 0
        positivity = json.loads(out.read_text())["positivity"]
        assert positivity["certified_strictly_positive"] is True
        assert abs(positivity["lambda_min"] - np.pi**2) <= 1e-5
        assert positivity["note"] == "lowest Friedrichs eigenvalue located"
        # the certificate is the count at the margin, made on a resolved mesh
        assert positivity["eigenvalues_below_margin"] == 0
        assert positivity["count_steps"] >= 64
        assert 0.0 < positivity["largest_step_angle"] <= np.pi / 4

    def test_certificate_needs_no_scan_bound(self, tmp_path):
        # lambda_1 = pi^2 lies above the bound: the count at the margin still
        # certifies positivity, and the note says that no bound limits it
        out = tmp_path / "report.json"
        args = ["compute", "--preset", "pure", "--order", "2", "--interval", "0,1",
                "--lambda-max", "5", "--out", str(out)]
        assert run_cli(args) == 0
        positivity = json.loads(out.read_text())["positivity"]
        assert positivity["certified_strictly_positive"] is True
        assert positivity["lambda_min"] is None
        assert "certifies positivity with no bound" in positivity["note"]

    def test_negative_left_endpoint_as_its_own_argument(self, capsys):
        # '--interval -1,1' is read as '--interval=-1,1', not as an option
        reports = []
        for interval in (["--interval", "-1,1"], ["--interval=-1,1"]):
            args = ["compute", "--preset", "pure", "--order", "2", *interval, "--task", "krein"]
            assert run_cli(args) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["operator"]["interval"] == [-1, 1]

    def test_pure_order_10(self, tmp_path):
        # T_K = Psi(b; 0) keeps order 10 on its closed form, and the unit-row
        # rank test sees the Krein and Friedrichs pairs as relatively prime
        out = tmp_path / "report.json"
        code = run_cli(["compute", "--preset", "pure", "--order", "10", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"]["relatively_prime"]["common_nullspace_dim"] == 0
        expected = [[float(v) for v in row] for row in exact.toeplitz_TK(5, (0, 1))]
        assert_allclose(as_complex(report["matrices"]["T_K"]), expected, 1e-8)


class TestVerifyCommand:
    def test_pure_order_8_brackets_constant(self, tmp_path):
        # the exact propagator keeps the order-8 bracket check under its gate
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--preset", "pure", "--order", "8", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["checks"]["bracket_constancy_worst"] <= 1e-8

    def test_verify_all_checks_present(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["verify", "--preset", "pure", "--order", "4", "--interval", "0,1",
             "--lambda-max", "50", "--out", str(out)]
        )
        assert code == 0
        checks = json.loads(out.read_text())["checks"]
        assert checks["krein_self_adjoint"]["verdict"]
        assert checks["friedrichs_self_adjoint"]["verdict"]
        assert checks["relatively_prime"]["verdict"]
        assert checks["kernel_membership_ok"]
        assert checks["bracket_constancy_worst"] <= 1e-8
        assert checks["gamma_reconstruction_residual"] <= 1e-9


    def test_reconstruction_residual_is_the_kernel_basis_one(self):
        cfg = cli.config_from_args(cli.build_arg_parser().parse_args(
            ["verify", "--preset", "fourth-order", "--lambda-max", "1"]))
        _, report = cli.run(cfg)
        sys_ = cli.build_system(cfg)
        basis = kx.kernel_basis(sys_, kx.fundamental_matrix(sys_))
        assert report["checks"]["gamma_reconstruction_residual"] == basis.residual > 0

    # the command line of each conftest preset
    PRESET_ARGS = {
        "pure-1": ["--preset", "pure", "--order", "2"],
        "pure-2": ["--preset", "pure", "--order", "4"],
        "pure-3": ["--preset", "pure", "--order", "6"],
        "fourth-order": ["--preset", "fourth-order"],
        "four-coeff": ["--preset", "four-coeff", "--interval", "0,1"],
    }

    @pytest.mark.parametrize("name", sorted(PRESET_ARGS))
    def test_bracket_constancy_is_the_all_pairs_one(self, pipelines, name):
        # the report's single width-n bracket reads the same worst deviation
        # as the n^2 width-1 pairs
        cfg = cli.config_from_args(cli.build_arg_parser().parse_args(
            ["verify", *self.PRESET_ARGS[name], "--lambda-max", "1"]))
        _, report = cli.run(cfg)
        pipe = pipelines[name]
        cols = [kx.SolutionTraces(pipe.fm, pipe.basis.C[:, [j]]) for j in range(pipe.sys.size)]
        pairs = [(f, g) for f in cols for g in cols]
        all_pairs = max(kx.check_bracket_constancy(f, g) for f, g in pairs)
        largest = max(np.abs(kx.lagrange_bracket(f, g)).max() for f, g in pairs)
        worst = report["checks"]["bracket_constancy_worst"]
        assert abs(worst - all_pairs) <= 1e-12 * largest, (worst, all_pairs)

    def test_bracket_constancy_is_the_library_check(self, tmp_path):
        # four-coeff M = 2, q = 1+x: the report reads check_bracket_constancy
        # on the full-width traces, the largest entry deviation, which the
        # width-1 column pairs read too, up to the rounding of their products
        path = tmp_path / "job.ini"
        path.write_text(VARIABLE_OPERATORS["four-coeff-m2"])
        cfg = cli.config_from_args(cli.build_arg_parser().parse_args(
            ["verify", "--config", str(path), "--lambda-max", "1"]))
        _, report = cli.run(cfg)
        sys_ = cli.build_system(cfg)
        fm = kx.fundamental_matrix(sys_)
        C = kx.kernel_basis(sys_, fm).C
        F = kx.SolutionTraces(fm, C)
        worst = report["checks"]["bracket_constancy_worst"]
        assert worst == kx.check_bracket_constancy(F, F)
        cols = [kx.SolutionTraces(fm, C[:, [j]]) for j in range(sys_.size)]
        pairs = [(f, g) for f in cols for g in cols]
        all_pairs = max(kx.check_bracket_constancy(f, g) for f, g in pairs)
        largest = max(np.abs(kx.lagrange_bracket(f, g)).max() for f, g in pairs)
        assert abs(worst - all_pairs) <= 1e-12 * largest, (worst, all_pairs)


class TestClosedFormCommand:
    def test_factorization_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["closed-form", "--order", "6", "--out", str(out)])
        assert code == 0
        section = json.loads(out.read_text())["closed_form"]
        assert section["factorization_ok"]
        assert section["order"] == 6
        assert section["T_K"][0][1] == "1"

    def test_factorization_counts_beside_other_tasks(self, monkeypatch, capsys):
        args = ["compute", "--preset", "pure", "--order", "2", "--task", "closed-form,validate"]
        assert run_cli(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["closed_form"]["factorization_ok"] is True
        assert report["validation"]["passed"] is True
        # a failed factorization is a numerical failure whatever runs beside it
        monkeypatch.setattr(cli.exact, "verify_factorization", lambda N, interval: False)
        assert run_cli(args) == 2

    def test_negative_left_endpoint_as_its_own_argument(self, capsys):
        reports = []
        for interval in (["--interval", "-0.5,2"], ["--interval=-0.5,2"]):
            assert run_cli(["closed-form", "--order", "4", *interval]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["closed_form"]["T_K"][0][1] == "5/2"

    def test_order_20_on_a_rational_interval(self, capsys):
        # decimal endpoints are read as decimal rationals: h = 3.25 - 0.5
        assert run_cli(["closed-form", "--order", "20", "--interval", "0.5,3.25"]) == 0
        section = json.loads(capsys.readouterr().out)["closed_form"]
        assert section["factorization_ok"] is True
        h = Fraction(11, 4)
        assert section["T_K"] == [
            [str(h ** (k - j) / factorial(k - j)) if k >= j else "0" for k in range(20)]
            for j in range(20)
        ]

    @pytest.mark.parametrize("order, interval, h", [
        (2, "0,0.12345678901234567890123", "12345678901234567890123/100000000000000000000000"),
        (4, "0,1/3", "1/3"),
    ])
    def test_endpoints_are_read_exactly(self, capsys, order, interval, h):
        # a decimal of any length and p/q reach the exact suite as typed
        assert run_cli(["closed-form", "--order", str(order), "--interval", interval]) == 0
        section = json.loads(capsys.readouterr().out)["closed_form"]
        assert section["factorization_ok"] is True
        h = Fraction(h)
        assert section["T_K"] == [
            [str(h ** (k - j) / factorial(k - j)) if k >= j else "0" for k in range(order)]
            for j in range(order)
        ]

    def test_numeric_operators_read_a_rational_interval_as_floats(self, tmp_path, capsys):
        cfg = tmp_path / "job.ini"
        cfg.write_text("[operator]\norder = 2\ninterval = 0, 1/4\nZ.1.2 = 1\nZ.2.1 = 1\n")
        assert run_cli(["compute", "--config", str(cfg), "--task", "validate"]) == 0
        assert json.loads(capsys.readouterr().out)["operator"]["interval"] == [0.0, 0.25]
        code = run_cli(["compute", "--preset", "pure", "--order", "2", "--interval", "-1/2,1/3",
                        "--task", "validate"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["operator"]["interval"] == [-0.5, 1 / 3]


class TestConfigFile:
    def test_preset_from_config(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[operator]\n"
            "preset = four-coeff\n"
            "interval = 0, 1\n"
            "p = 1\nq = 1\nr = 1\ns = 0\n"
            "[tolerances]\n"
            "lambda_max = 5\n"
            "[tasks]\n"
            "tasks = validate, krein\n"
        )
        out = tmp_path / "report.json"
        assert run_cli(["compute", "--config", str(cfg), "--out", str(out)]) == 0
        T = as_complex(json.loads(out.read_text())["matrices"]["T_K"])
        c, s = np.cosh(1.0), np.sinh(1.0)
        assert_allclose(T, [[c, s], [s, c]], 1e-8)

    def test_block_expression_coefficient(self, tmp_path):
        # q = 1+x with block size 2 is (1+x) I_2: two uncoupled copies of
        # the scalar operator
        reports = {}
        for M in (1, 2):
            cfg = tmp_path / f"job{M}.ini"
            cfg.write_text(
                "[operator]\npreset = four-coeff\ninterval = 0, 1\n"
                f"block_size = {M}\np = 1\nq = 1+x\nr = 1\ns = 0\n"
                "[tolerances]\nlambda_max = 20\n"
            )
            out = tmp_path / f"report{M}.json"
            assert run_cli(["compute", "--config", str(cfg), "--out", str(out)]) == 0
            reports[M] = json.loads(out.read_text())
        scalar = as_complex(reports[1]["matrices"]["T_K"])
        assert_allclose(as_complex(reports[2]["matrices"]["T_K"]),
                        np.kron(scalar, np.eye(2)), 1e-9)
        lam = [reports[M]["positivity"]["lambda_min"] for M in (1, 2)]
        assert abs(lam[1] - lam[0]) <= 1e-9, lam

    def test_explicit_operator_entries(self, tmp_path):
        # -y'' + y via explicit coefficient expressions
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[operator]\n"
            "order = 2\n"
            "interval = 0, 1\n"
            "Z.1.2 = 1\n"
            "Z.2.1 = 1\n"
            "W = 1\n"
            "[tolerances]\n"
            "lambda_max = 5\n"
            "[tasks]\n"
            "tasks = validate krein\n"
        )
        out = tmp_path / "report.json"
        assert run_cli(["compute", "--config", str(cfg), "--out", str(out)]) == 0
        T = as_complex(json.loads(out.read_text())["matrices"]["T_K"])
        c, s = np.cosh(1.0), np.sinh(1.0)
        assert_allclose(T, [[c, s], [s, c]], 1e-8)

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["compute", "--config", str(tmp_path / "nope.ini")]) == 3

    @pytest.mark.parametrize("section, line", [
        ("tolerances", "lambda_max = 0"),
        ("tolerances", "rel_tol = 2"),
        ("tolerances", "abs_tol = 0"),
        ("operator", "block_size = 0"),
        ("tasks", "tasks = validate, bogus"),
    ])
    def test_out_of_range_setting_is_rejected(self, tmp_path, section, line):
        # the file path checks each range itself, for every caller of
        # load_config_file, not only for the command line
        cfg = tmp_path / "job.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config_file(str(cfg))

    @pytest.mark.parametrize("name", list(cli.SETTINGS))
    def test_file_and_flag_agree(self, tmp_path, name):
        # one setting from a config file gives the job its flag gives, and
        # the flag overrides the file
        setting, (file_text, flag_text) = cli.SETTINGS[name], SETTING_TEXTS[name]
        cfg = tmp_path / "job.ini"
        cfg.write_text(f"[{setting.section}]\n{name} = {file_text}\n")

        def job(*args):
            return cli.config_from_args(cli.build_arg_parser().parse_args(["compute", *args]))

        from_file = job("--config", str(cfg))
        assert from_file == job(setting.flag, file_text)
        assert getattr(from_file, name) != getattr(job(), name)
        overridden = job("--config", str(cfg), setting.flag, flag_text)
        assert overridden == job(setting.flag, flag_text)
        assert getattr(overridden, name) != getattr(from_file, name)


class TestExitCodes:
    def test_unknown_task(self):
        assert run_cli(
            ["compute", "--preset", "pure", "--order", "2", "--interval", "0,1",
             "--task", "bogus"]
        ) == 3

    def test_missing_order_for_pure(self):
        assert run_cli(["compute", "--preset", "pure", "--interval", "0,1"]) == 3

    def test_bad_interval(self):
        assert run_cli(
            ["compute", "--preset", "pure", "--order", "2", "--interval", "zero,one"]
        ) == 3

    def test_bad_expression_in_config(self, tmp_path):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[operator]\norder = 2\ninterval = 0, 1\nZ.1.2 = 1+\nZ.2.1 = 0\n"
            "[tasks]\ntasks = validate\n"
        )
        assert run_cli(["compute", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "config, option",
        [
            ("[operator]\npreset = pure\norder = abc\ninterval = 0, 1\n", []),
            ("[operator]\npreset = pure\norder = 2\ninterval = 0, 1\n"
             "[tolerances]\nrel_tol = abc\n", []),
            ("[operator]\npreset = pure\norder = 2\ninterval = 0, 1\n",
             ["--lambda-max", "0"]),
            ("[operator]\npreset = pure\norder = 2\ninterval = 0, 1\n",
             ["--rel-tol", "0"]),
            ("[operator]\npreset = pure\norder = 2\ninterval = 0, 1\n",
             ["--lambda-max", "abc"]),
            ("[operator]\npreset = four-coeff\ninterval = 0, 1\n",
             ["--block-size", "0"]),
            ("[operator]\npreset = pure\norder = 2\ninterval = 0, 1\n",
             ["--interval", "1,0"]),
            ("[operator]\npreset = pure\norder = 2\ninterval = 0, 1\n",
             ["--interval", "0,inf"]),
            (None, ["closed-form", "--order", "4", "--interval", "0,nan"]),
            (None, ["closed-form", "--order", "4", "--interval", "0,1/0"]),
            (None, ["closed-form", "--order", "4", "--interval", "0,1e400"]),
            ("[operator]\norder = 0\ninterval = 0, 1\n", ["--task", "closed-form"]),
            ("[operator]\norder = -2\ninterval = 0, 1\n", ["--task", "closed-form"]),
            ("[operator]\norder = 4\ninterval = 0, 0\n", ["--task", "closed-form"]),
            ("[operator]\norder = 4\ninterval = 0, inf\n", ["--task", "closed-form"]),
            ("[operator]\norder = 4\ninterval = 1, 0\n", ["--task", "closed-form"]),
            (None, ["closed-form", "--order", "4", "--interval"]),
            (None, ["compute", "--preset", "pure", "--interval", "--order", "2"]),
            *((config, []) for config in UNREAD_KEYS.values()),
            *((None, args) for _, _, args in UNREAD_SETTINGS),
            *((config, []) for config in MALFORMED_CONFIGS.values()),
            (None, ["compute", "--preset", "four-coeff"]),
            ("[operator]\norder = 2\nZ.1.2 = 1\nZ.2.1 = 1\n", []),
            ("[operator]\norder = 2\ninterval = 0, 1\nZ.1 = 1\n", []),
            ("[operator]\norder = 2\ninterval = 0, 1\nZ.3.1 = 1\n", []),
            (None, []),
            (None, ["bogus"]),
            (None, ["--preset", "pure", "--order", "2"]),
        ],
        ids=["order", "rel_tol", "lambda_max", "rel_tol_range", "lambda_max_option",
             "block_size_0", "reversed_interval", "infinite_interval",
             "nan_interval", "zero_denominator_interval", "overflowing_interval",
             "closed_form_order_0", "closed_form_order_negative", "closed_form_empty_interval",
             "closed_form_infinite_interval", "closed_form_reversed_interval",
             "interval_value_missing", "interval_value_is_a_flag",
             "unread_coefficient_key", "unread_tolerance_key", "unread_explicit_key",
             "unknown_section", *(case for case, _, _ in UNREAD_SETTINGS),
             *MALFORMED_CONFIGS, "four_coeff_without_interval",
             "explicit_without_interval", "two_part_key", "key_out_of_range",
             "no_command", "unknown_command", "options_without_command"],
    )
    def test_bad_number_is_configuration_error(self, request, tmp_path, capsys,
                                               config, option):
        # without a config, the option is the whole command line
        if config is not None:
            cfg = tmp_path / "job.ini"
            if isinstance(config, bytes):
                cfg.write_bytes(config)
            else:
                cfg.write_text(config)
            option = ["compute", "--config", str(cfg), *option]
        if request.node.callspec.id == "order":
            # one case runs the module as a program, the rest run in-process
            package_root = os.path.dirname(os.path.dirname(cli.__file__))
            proc = subprocess.run(
                [sys.executable, "-m", "kreinext.cli", *option],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": package_root},
            )
            code, err = proc.returncode, proc.stderr
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(option)
            err = capsys.readouterr().err
        assert code == 3, err
        assert "Traceback" not in err
        assert err.startswith("configuration error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "key, args",
        [*((key, None) for key in sorted(UNREAD_KEYS)),
         *((key, args) for _, key, args in UNREAD_SETTINGS)],
        ids=[*sorted(UNREAD_KEYS), *(case for case, _, _ in UNREAD_SETTINGS)],
    )
    def test_unread_key_is_named(self, tmp_path, capsys, key, args):
        if args is None:
            cfg = tmp_path / "job.ini"
            cfg.write_text(UNREAD_KEYS[key])
            args = ["compute", "--config", str(cfg)]
        assert run_cli(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err, err

    def test_out_into_missing_directory_is_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        args = ["compute", "--preset", "pure", "--order", "2", "--task", "validate"]
        assert run_cli([*args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write the report to {out}:")
        assert len(err.strip().splitlines()) == 1

    def test_out_of_memory_is_numerical_failure(self, monkeypatch, capsys):
        def exhausted(sys_):
            raise MemoryError("Unable to allocate 15.3 GiB for an array")

        monkeypatch.setattr(cli, "validate_hypothesis", exhausted)
        assert run_cli(["compute", "--preset", "pure", "--order", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: Unable to allocate 15.3 GiB for an array\n"

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        # negative weight fails the structural checks -> exit 1
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[operator]\npreset = four-coeff\ninterval = 0, 1\n"
            "p = 1\nq = 1\nr = -1\ns = 0\n"
            "[tasks]\ntasks = validate\n"
        )
        assert run_cli(["compute", "--config", str(cfg)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["validation"]["passed"]

    @pytest.mark.parametrize("block_size", [1, 2])
    def test_vanishing_constant_p_exit_code(self, tmp_path, capsys, block_size):
        # 1/p of a constant p = 0 (a singular matrix for M > 1) is an
        # evaluation failure -> exit 1
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[operator]\npreset = four-coeff\ninterval = 0, 1\n"
            f"block_size = {block_size}\np = 0\nq = 1\nr = 1\ns = 0\n"
            "[tasks]\ntasks = validate\n"
        )
        assert run_cli(["compute", "--config", str(cfg)]) == 1
        assert "1/p" in capsys.readouterr().err

    def test_singular_trace_map_exit_code(self, tmp_path):
        # kernel sin(pi x) makes the restricted trace map singular -> exit 2
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[operator]\npreset = four-coeff\ninterval = 0, 1\n"
            "p = 1\nq = -(pi^2)\nr = 1\ns = 0\n"
            "[tolerances]\nlambda_max = 0.5\n"
            "[tasks]\ntasks = validate krein\n"
        )
        assert run_cli(["compute", "--config", str(cfg)]) == 2

    def test_ill_conditioned_trace_map_names_both_causes(self, capsys):
        # -y'' + y on [0, 30] is strictly positive (lambda_1 = 1 + (pi/30)^2),
        # yet its trace map has condition number 1.1e13: the message states
        # the measurement and both of its causes, not a failed hypothesis
        args = ["compute", "--preset", "four-coeff", "--interval", "0,30"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: endpoint-trace map condition number 1.0")
        assert "exceeds 1e+12" in err and "Friedrichs eigenvalue" in err
        assert "ill-conditioned" in err and "strict-positivity" not in err

    def test_overflowing_scan_is_numerical_failure(self, capsys):
        # the steps overflow at the top of the counted points; the message
        # names the first such point before any count sees a non-finite value
        args = ["compute", "--preset", "pure", "--order", "2", "--lambda-max", "1e300"]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        found = re.match(r"numerical failure: non-finite fundamental matrix at lambda=(\S+) ",
                         captured.err)
        assert found, captured.err
        counted = 1e300 * (np.arange(1, 9) / 8.0) ** 2
        assert np.isclose(float(found[1]), counted, rtol=1e-15, atol=0.0).any(), found[1]
        assert len(captured.err.strip().splitlines()) == 1

    def test_growing_solutions_reach_the_report(self, tmp_path, capsys):
        # q = 100 + x on [0, 2]: solutions grow like e^20, an accurate grid
        # that no check of the propagator rejects; the pair's own check fails
        cfg = tmp_path / "job.ini"
        cfg.write_text("[operator]\npreset = four-coeff\ninterval = 0, 2\nq = 100+x\n")
        out = tmp_path / "report.json"
        assert run_cli(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert "singular" not in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["checks"]["krein_self_adjoint"]["verdict"] is False
        # the certificate holds, but a pair that fails its own check is no label's
        assert report["positivity"]["certified_strictly_positive"] is True
        assert report["matrices"]["role"] == "candidate"

    def test_reconstruction_gate_names_value_and_bound(self, tmp_path, capsys):
        # q = 100 on [0, 2]: cond(Lambda) is 2.45e9 and the reconstruction
        # residual lands just above the gate; the message gives both numbers
        cfg = tmp_path / "job.ini"
        cfg.write_text("[operator]\npreset = four-coeff\ninterval = 0, 2\nq = 100\n")
        assert run_cli(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        found = re.fullmatch(r"numerical failure: kernel basis reconstruction residual "
                             r"(\S+) exceeds 1e-08\n", captured.err)
        assert found, captured.err
        assert float(found[1]) > 1e-8

    @staticmethod
    def run_with_stdout(stdout) -> subprocess.CompletedProcess:
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        return subprocess.run(
            [sys.executable, "-m", "kreinext.cli", "verify", "--preset", "fourth-order"],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": package_root},
        )

    def test_closed_stdout_is_configuration_error(self):
        # the read end is closed before the run, so writing the report fails
        # with EPIPE: one line on stderr, exit 3, and no message at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run_with_stdout(write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "configuration error: cannot write the report to stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_configuration_error(self):
        # every write to /dev/full fails with ENOSPC, as on a full disk
        with open("/dev/full", "w") as full:
            proc = self.run_with_stdout(full)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "configuration error: cannot write the report to stdout: No space left on device\n")


class TestArgumentParser:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_command_picks_its_default_tasks(self, command):
        cfg = cli.config_from_args(cli.build_arg_parser().parse_args([command]))
        assert cfg.tasks == cli.COMMANDS[command]
        given = cli.config_from_args(cli.build_arg_parser().parse_args(
            [command, "--task", "spectrum"]))
        assert given.tasks == ["spectrum"]

    def test_every_command_takes_every_option(self):
        options = [text for name, setting in cli.SETTINGS.items()
                   for text in (setting.flag, SETTING_TEXTS[name][0])]
        for command in cli.COMMANDS:
            args = cli.build_arg_parser().parse_args([command, *options, "--out", "r.json"])
            assert (args.command, args.out) == (command, "r.json")
            assert all(getattr(args, name) is not None for name in cli.SETTINGS)


class TestVariableCoefficients:
    @pytest.mark.parametrize("name", ["readme", "four-coeff-seeded", "fourth-order-seeded"])
    def test_run_is_silent_and_warning_free(self, tmp_path, capfd, name):
        cfg = tmp_path / "job.ini"
        cfg.write_text(VARIABLE_OPERATORS[name])
        args = cli.build_arg_parser().parse_args(["compute", "--config", str(cfg)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = cli.run(cli.config_from_args(args))
        assert code == 0
        assert report["positivity"]["certified_strictly_positive"]
        assert capfd.readouterr() == ("", "")

    def test_unconverged_mesh_is_a_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[operator]\npreset = four-coeff\ninterval = 0, 1\n"
            "p = 1\nq = 1e6*sin(3000*x)\nr = 1\ns = 0\n"
        )
        assert run_cli(["compute", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        found = re.fullmatch(r"numerical failure: Magnus mesh not converged at lambda=\S+ "
                             r"with \d+ steps: error estimate (\S+) exceeds (\S+)\n",
                             captured.err)
        assert found, captured.err
        value, bound = map(float, found.groups())
        assert value > bound > 0.0



class TestFalsePositivityCertificates:
    """Operators whose lowest Friedrichs eigenvalue lies below 0.  A scan
    of [0, lambda_max] alone certified each of them, with the next
    eigenvalue as lambda_min (19.478, 19.478, 19.69 and 29.95); the count
    at the margin sees the eigenvalues below it."""

    @pytest.mark.parametrize(
        "block_size, q, below",
        # true lambda_1: pi^2 - 20 = -10.13 (a double one for M = 2);
        # finite differences give -3.75 and -1.83 for the variable ones
        [(1, "-20", 1), (2, "-20", 2), (1, "100*sin(20*x)", 1), (1, "-30+40*x", 1)],
        ids=["shifted-dirichlet", "shifted-dirichlet-m2", "oscillating-q", "linear-q"],
    )
    def test_negative_lowest_eigenvalue_is_not_certified(self, tmp_path, block_size, q, below):
        cfg = tmp_path / "job.ini"
        cfg.write_text(
            "[operator]\npreset = four-coeff\ninterval = 0, 1\n"
            f"block_size = {block_size}\np = 1\nq = {q}\nr = 1\ns = 0\n"
        )
        args = cli.build_arg_parser().parse_args(["verify", "--config", str(cfg)])
        _, report = cli.run(cli.config_from_args(args))
        positivity = report["positivity"]
        assert not positivity["certified_strictly_positive"]
        assert positivity["eigenvalues_below_margin"] == below
        assert positivity["lambda_min"] is None and "not located" in positivity["note"]
        assert report["matrices"]["role"] == "candidate"


class TestEigenvalueBelowTheScanGrid:
    def test_lowest_dirichlet_eigenvalue_on_long_interval(self):
        # -y'' on [0, 1000]: lambda_1 = pi^2 / 10^6 lay below the first
        # nonzero point, 2.5e-3, of the 201-point grid that the counts
        # replace, which reported the 25th eigenvalue (25 pi / 1000)^2
        args = cli.build_arg_parser().parse_args(
            ["compute", "--preset", "pure", "--order", "2", "--interval", "0,1000"])
        _, report = cli.run(cli.config_from_args(args))
        lam = report["positivity"]["lambda_min"]
        assert abs(lam - np.pi**2 / 1e6) <= 1e-5 * np.pi**2 / 1e6, lam


class TestFeatureBetweenSamplePoints:
    """A coefficient bump of width about 2e-6 at c = 0.606665.  It lies
    between the 257 validation samples and at least 7.6e-4 from every Gauss
    node of the 32- to 256-step Magnus meshes, so neither ever sees it.
    Coefficient enclosures between the samples (ROADMAP direction 2) turn
    these tests into passes."""

    BUMP = "exp(-1e11*(x-0.606665)^2)"

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 2: the Magnus meshes step "
                       "over the spike; compute exits 0, labels the pair Krein--von "
                       "Neumann and reports the T_K of the operator without it")
    def test_spike_is_propagated_or_flagged(self, tmp_path):
        cfg, out = tmp_path / "spike.ini", tmp_path / "spike.json"
        cfg.write_text("[operator]\npreset = four-coeff\ninterval = 0, 1\n"
                       f"p = 1\nq = 1+3e6*{self.BUMP}\nr = 1\n")
        code = cli.main(["compute", "--config", str(cfg), "--out", str(out)])
        if code == 0:
            # as its width goes to 0, a spike of integral I at c acts as the
            # jump y'(c+) - y'(c-) = I y(c) between two pieces of -y'' + y
            c, jump = 0.606665, 3e6 * np.sqrt(np.pi / 1e11)

            def phi(L):
                return np.array([[np.cosh(L), np.sinh(L)], [np.sinh(L), np.cosh(L)]])

            oracle = phi(1.0 - c) @ np.array([[1.0, 0.0], [jump, 1.0]]) @ phi(c)
            matrices = json.loads(out.read_text())["matrices"]
            T = np.array(matrices["T_K"]) @ np.array([1.0, 1j])
            rel = np.linalg.norm(T - oracle) / np.linalg.norm(oracle)
            assert matrices["role"] == "candidate" or rel <= 1e-3, rel

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 2: the weight is negative "
                       "only between the validation samples, so W_positive reads 1.0")
    def test_negative_weight_fails_validation(self):
        sys_ = kx.preset_four_coeff(1, 1, f"1-2*{self.BUMP}", 0, (0.0, 1.0))
        assert not kx.validate_hypothesis(sys_).passed


class TestEigenvalueMissedAtHighOrder:
    def test_lowest_eigenvalue_of_pure_order_10(self):
        # -y^(10) = lambda y on [0, 1], clamped: lambda_1 = beta^10 with
        # beta = 9.34329794 the first root of the clamped determinant
        args = cli.build_arg_parser().parse_args(
            ["compute", "--preset", "pure", "--order", "10", "--lambda-max", "1e10"])
        _, report = cli.run(cli.config_from_args(args))
        lam = report["positivity"]["lambda_min"]
        assert lam is not None and abs(lam - 5.06993019e9) <= 1e-6 * 5.06993019e9, lam


class TestSerialization:
    def test_complex_and_fraction_coding(self):
        payload = json.loads(json.dumps(
            {"z": 1 + 2j, "f": Fraction(1, 3), "m": np.array([[1.0]])},
            default=cli._as_jsonable))
        assert payload["z"] == [1.0, 2.0]
        assert payload["f"] == "1/3"
        assert payload["m"] == [[[1.0, 0.0]]]
