"""Lagrange-bracket properties: constancy, sesquilinearity, entry formula."""

import itertools

import numpy as np
import pytest

import kreinext as kx
from kreinext.brackets import SolutionTraces, check_bracket_constancy, lagrange_bracket
from kreinext.errors import StructureError
from kreinext.system import block_j_matrix

from conftest import assert_allclose


def kernel_columns(pipe):
    n = pipe.sys.size
    return [SolutionTraces(pipe.fm, pipe.basis.C[:, [j]]) for j in range(n)]


class TestConstancy:
    def test_kernel_pairs_constant(self, pipeline):
        cols = kernel_columns(pipeline)
        worst = max(
            check_bracket_constancy(f, g) for f in cols for g in cols
        )
        assert worst <= 1e-8, worst

    def test_fourth_order_named_pair(self, pipelines):
        pipe = pipelines["fourth-order"]
        cols = kernel_columns(pipe)
        assert check_bracket_constancy(cols[0], cols[2]) <= 1e-8

    def test_constancy_matches_scalar_bracket(self, pipelines):
        # the grid-wide check agrees with the public bracket, point by point
        pipe = pipelines["fourth-order"]
        cols = kernel_columns(pipe)
        for f, g in itertools.product(cols, cols):
            brackets = lagrange_bracket(f, g)
            assert brackets.shape == (len(pipe.fm.grid), 1, 1)
            scalar = max(np.linalg.norm(bracket - brackets[0]) for bracket in brackets)
            assert abs(check_bracket_constancy(f, g) - scalar) <= 1e-12

    def test_non_kernel_pair_varies(self):
        # solutions at different spectral parameters have non-constant bracket
        sys = kx.preset_pure(1, (0, 1))
        f = SolutionTraces(kx.fundamental_matrix(sys, lam=0.0), np.array([1.0, 0.0]))
        g = SolutionTraces(kx.fundamental_matrix(sys, lam=25.0), np.array([1.0, 0.0]))
        assert check_bracket_constancy(f, g) > 1e-3


class TestAlgebra:
    def test_sesquilinearity(self, pipelines):
        pipe = pipelines["fourth-order"]
        rng = np.random.default_rng(7)
        u, v, w = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(3))
        al, be = 2.0 - 1j, 0.5 + 3j
        f = SolutionTraces(pipe.fm, al * u + be * v)
        fu = SolutionTraces(pipe.fm, u)
        fv = SolutionTraces(pipe.fm, v)
        gw = SolutionTraces(pipe.fm, w)
        # linear in the first slot, at every grid point
        assert_allclose(
            lagrange_bracket(f, gw),
            al * lagrange_bracket(fu, gw) + be * lagrange_bracket(fv, gw),
            1e-9,
        )
        # conjugate-linear in the second slot
        g = SolutionTraces(pipe.fm, al * u + be * v)
        assert_allclose(
            lagrange_bracket(gw, g),
            np.conj(al) * lagrange_bracket(gw, fu)
            + np.conj(be) * lagrange_bracket(gw, fv),
            1e-9,
        )

    def test_matrix_entry_formula(self, pipelines):
        # the (j,k) entry of the block bracket equals the scalar bracket of
        # column k against column j, and the bracket at each point is
        # G(x)* K F(x); the M = 8 system has 16 x 16 traces of width 8
        rng = np.random.default_rng(11)
        m8 = kx.fundamental_matrix(kx.preset_four_coeff(1, "1+x", 1, 0, (0.0, 1.0), M=8))
        for fm, width in ((pipelines["fourth-order"].fm, 2), (m8, 8)):
            n = fm.n
            F0 = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
            G0 = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
            F = SolutionTraces(fm, F0)
            G = SolutionTraces(fm, G0)
            block = lagrange_bracket(F, G)
            for j in range(width):
                for k in range(width):
                    scalar = lagrange_bracket(
                        SolutionTraces(fm, F0[:, [k]]),
                        SolutionTraces(fm, G0[:, [j]]),
                    )
                    assert np.abs(block[:, j, k] - scalar[:, 0, 0]).max() < 1e-9
            K = (-1) ** (fm.sys.N + 1) * block_j_matrix(fm.sys.M, fm.sys.order)
            for t in range(len(fm.grid)):
                expected = G.values[t].conj().T @ K @ F.values[t]
                assert_allclose(block[t], expected, 1e-12 * np.abs(expected).max())

    def test_second_order_explicit_wronskian(self):
        # for the second-order pure expression the bracket is the Wronskian
        # up to sign: [f, g] = f g'* - f' g* at each point
        sys = kx.preset_pure(1, (0, 1))
        fm = kx.fundamental_matrix(sys)
        f = SolutionTraces(fm, np.array([1.0, 2.0]))
        g = SolutionTraces(fm, np.array([0.5, -1.0]))
        brackets = lagrange_bracket(f, g)
        for k in (0, 32, 64):  # x = 0, 0.5, 1
            fx, fpx = f.values[k][:, 0]
            gx, gpx = g.values[k][:, 0]
            expected = np.conj(gpx) * fx - np.conj(gx) * fpx
            assert abs(brackets[k, 0, 0] - expected) < 1e-10


class TestInterface:
    def test_row_vector_initial_transposed(self):
        fm = kx.fundamental_matrix(kx.preset_pure(1, (0, 1)))
        f = SolutionTraces(fm, np.array([[1.0, 2.0]]))
        assert f.initial.shape == (2, 1)

    def test_mismatched_dimensions_rejected(self):
        fm2 = kx.fundamental_matrix(kx.preset_pure(1, (0, 1)))
        fm4 = kx.fundamental_matrix(kx.preset_pure(2, (0, 1)))
        f = SolutionTraces(fm2, np.array([1.0, 0.0]))
        g = SolutionTraces(fm4, np.zeros(4))
        with pytest.raises(StructureError):
            lagrange_bracket(f, g)

    def test_mismatched_grids_rejected(self):
        f = SolutionTraces(
            kx.fundamental_matrix(kx.preset_pure(1, (0, 1))), np.array([1.0, 0.0])
        )
        g = SolutionTraces(
            kx.fundamental_matrix(kx.preset_pure(1, (0, 2))), np.array([1.0, 0.0])
        )
        with pytest.raises(StructureError):
            check_bracket_constancy(f, g)

    def test_nearly_equal_grids_rejected(self):
        # grids 1e-6 apart pass np.allclose; traces on different intervals
        # still have no bracket
        f, g = (SolutionTraces(kx.fundamental_matrix(kx.preset_pure(1, (0, b))),
                               np.array([1.0, 0.0])) for b in (1, 1 + 1e-6))
        with pytest.raises(StructureError):
            check_bracket_constancy(f, g)
