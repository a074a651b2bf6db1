import itertools

import numpy as np
import pytest
import scipy.linalg

from qtraj.linalg import (
    adjoint,
    bloch_apply,
    bloch_norm_sq,
    bloch_superop,
    bloch_terms,
    bloch_to_density,
    density_to_bloch,
    max_abs,
    sandwich_superop,
    tensor,
)

from qtraj.model import FIELD_HAMILTONIANS, build_unitary

from helpers import assert_same_bits, rand_cmat, rand_config, rand_herm, rand_state_matrix
from oracles import apply_superop, bloch_apply_broadcast, partial_trace_system


class TestAdjoint:
    def test_identity_self_adjoint(self):
        assert np.array_equal(adjoint(np.eye(2, dtype=complex)), np.eye(2))

    def test_real_matrix_transposes(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(adjoint(m), np.array([[0, 0], [1, 0]]))

    def test_diagonal_conjugates(self):
        m = np.diag([1j, -1j])
        assert np.array_equal(adjoint(m), np.diag([-1j, 1j]))

    def test_involution_and_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = rand_cmat(rng, dim=4)
            assert np.array_equal(adjoint(adjoint(m)), m)
            assert abs(adjoint(m).trace() - np.conj(m.trace())) < 1e-14


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_product(self):
        p = np.diag([1.0, 0.0])
        assert np.allclose(tensor(p, p), np.diag([1.0, 0, 0, 0]), atol=0)

    def test_elementwise_definition(self):
        # oracle: entry ((sys_i, field_i), (sys_j, field_j)) with the system
        # index fast, i.e. row 2*fi + si, column 2*fj + sj
        rng = np.random.default_rng(1)
        a = rand_cmat(rng)
        b = rand_cmat(rng)
        got = tensor(a, b)
        for si in range(2):
            for sj in range(2):
                for fi in range(2):
                    for fj in range(2):
                        expected = a[si, sj] * b[fi, fj]
                        assert abs(got[2 * fi + si, 2 * fj + sj] - expected) < 1e-15

    def test_bit_identical_to_kron(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a, b = rand_cmat(rng), rand_cmat(rng)
            assert np.array_equal(tensor(a, b), np.kron(b, a))
            assert np.array_equal(sandwich_superop(a, b), np.kron(a, b.T).T)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rand_cmat(rng), rand_cmat(rng)
            assert abs(tensor(a, b).trace() - a.trace() * b.trace()) < 1e-12


class TestPartialTrace:
    def test_product_states(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = rand_state_matrix(rng)
            beta = rand_state_matrix(rng)
            assert max_abs(partial_trace_system(tensor(rho, beta)) - rho) < 1e-13

    def test_identity(self):
        assert np.array_equal(partial_trace_system(np.eye(4, dtype=complex)),
                              2.0 * np.eye(2))

    def test_defining_property(self):
        # Tr[eta x] = Tr[m (x tensor I)] over a basis of system operators
        rng = np.random.default_rng(4)
        basis = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for k in range(4):
            basis[k][k // 2, k % 2] = 1.0
        for _ in range(50):
            m = rand_cmat(rng, dim=4)
            eta = partial_trace_system(m)
            for x in basis:
                lhs = (eta @ x).trace()
                rhs = (m @ tensor(x, np.eye(2))).trace()
                assert abs(lhs - rhs) < 1e-12

    def test_linear_and_trace_preserving(self):
        rng = np.random.default_rng(5)
        a, b = rand_cmat(rng, 4), rand_cmat(rng, 4)
        lin = partial_trace_system(2.0 * a + 3.0 * b) \
            - 2.0 * partial_trace_system(a) - 3.0 * partial_trace_system(b)
        assert max_abs(lin) < 1e-13
        assert abs(partial_trace_system(a).trace() - a.trace()) < 1e-13


class TestSandwichSuperop:
    def test_row_major_vec_identity(self):
        # vec(a x b) = vec(x) @ S, with vec the row-major flattening
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, x, b = rand_cmat(rng), rand_cmat(rng), rand_cmat(rng)
            s = sandwich_superop(a, b)
            assert max_abs(x.reshape(4) @ s - (a @ x @ b).reshape(4)) < 1e-13



class TestApplySuperop:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        s = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        assert max_abs(apply_superop(v, s) - v @ s) < 1e-13
        assert max_abs(apply_superop(v[0], s) - v[0] @ s) < 1e-13

    def test_rows_independent_of_batch_size(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
        for s in (sandwich_superop(rand_cmat(rng), rand_cmat(rng)),
                  np.asfortranarray(rng.normal(size=(4, 8)) + 0j)):
            batch = apply_superop(v, s)
            for j in range(7):
                assert np.array_equal(batch[j], apply_superop(v[j:j + 1], s)[0])
                assert np.array_equal(batch[j], apply_superop(v[j], s))


class TestBloch:
    def test_superop_acts_on_bloch_vectors(self):
        # (a x a+) in Bloch coordinates: u' = u @ T S T^-1 with u = (1, r)
        rng = np.random.default_rng(10)
        for _ in range(200):
            a, rho = rand_cmat(rng), rand_state_matrix(rng)
            s = bloch_superop(sandwich_superop(a, adjoint(a)))
            out = a @ rho @ adjoint(a)
            u = np.concatenate([[1.0], density_to_bloch(rho)]) @ s
            assert abs(u[0] - out.trace().real) < 1e-13
            assert max_abs(bloch_to_density(u[1:] / u[0]) - out / out.trace()) < 1e-13

    def test_functional_column(self):
        rng = np.random.default_rng(11)
        x, rho = rand_herm(rng), rand_state_matrix(rng)
        g = bloch_superop(x.T.reshape(4))
        u = np.concatenate([[1.0], density_to_bloch(rho)])
        assert abs(u @ g - np.trace(rho @ x).real) < 1e-13

    def test_non_hermitian_map_rejected(self):
        with pytest.raises(ValueError, match="not real"):
            bloch_superop(sandwich_superop(1j * np.eye(2), np.eye(2)))

    def test_tolerance_scales_with_the_map(self):
        # rounding of a large Hermiticity-preserving map is not a violation
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = 1e3 * rand_cmat(rng)
            bloch_superop(np.eye(4) + 1e-2 * sandwich_superop(a, adjoint(a)))


class TestBlochApply:
    @pytest.mark.parametrize("k", [7, 8])
    @pytest.mark.parametrize("m", [1, 2, 3, 1000, 2048])
    def test_rows_match_the_broadcast_form(self, k, m):
        # the row form takes the broadcast form's products and sums in the
        # same order, or on finite states drops its +-0 products, so the
        # bits agree on any input, non-finite ones and zero signs included
        rng = np.random.default_rng(14 + 10 * k + m)
        for states, zeros in itertools.product(("special", "finite"), ("dense", "sparse")):
            special = [0.0, -0.0, 5e-324, -2.5e-310]
            if states == "special":
                special += [np.inf, -np.inf, np.nan]
            r = rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-300, 300, size=(m, 3))
            mask = rng.random((m, 3)) < 0.3
            r[mask] = rng.choice(special, size=mask.sum())
            a = rng.normal(size=(4, k))
            if zeros == "sparse":
                # about half the coefficients +-0, column 0's three terms
                # among them, and the constants of columns 1 and 2 -0 and +0
                mask = rng.random((4, k)) < 0.5
                mask[1:, 0] = True
                a[mask] = rng.choice([0.0, -0.0], size=mask.sum())
                a[0, 1:3] = -0.0, 0.0
            out = np.empty((k, m))
            with np.errstate(all="ignore"):
                got = bloch_apply(np.ascontiguousarray(r.T), bloch_terms(a), out)
                want = bloch_apply_broadcast(r, a)
            assert got is out
            assert np.array_equal(got, want, equal_nan=True)
            signed = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed]))


@pytest.mark.parametrize("m", [1, 2, 1000])
def test_norm_sq_has_the_bits_of_the_scalar_sum(m):
    # the reduction over the outer axis adds the squares in the scalar
    # loops' order, x x + y y then + z z, on any input: a pairwise or
    # reordered sum would round some of these differently
    rng = np.random.default_rng(15 + m)
    # one scale a member, so that its squares are of one size and the order
    # of their sum shows, over and under the float range too
    r = rng.normal(size=(3, m)) * 10.0 ** rng.integers(-170, 170, size=m)
    mask = rng.random((3, m)) < 0.1
    r[mask] = rng.choice([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan], size=mask.sum())
    out = np.empty(m)
    with np.errstate(all="ignore"):
        got = bloch_norm_sq(r, np.empty((3, m)), out)
        want = r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
    assert got is out
    assert_same_bits(got, want, True)


class TestExpm4:
    def test_against_scipy(self):
        # independent oracle for the 4x4 exponential U(n) = exp(-i G) that
        # build_unitary takes by eigendecomposition: scipy's Pade-based expm
        rng = np.random.default_rng(8)
        raise_, lower = np.array([[0, 0], [1, 0]]), np.array([[0, 1], [0, 0]])
        for _ in range(600):
            cfg = rand_config(rng, n_low=1, n_high=10**6)
            c = cfg.coupling()
            h_field = FIELD_HAMILTONIANS[cfg.field_hamiltonian]
            free = tensor(cfg.h0, np.eye(2)) + tensor(np.eye(2), h_field)
            exchange = tensor(c, raise_) - tensor(adjoint(c), lower)
            ref = scipy.linalg.expm(-1j * free / cfg.n + exchange / np.sqrt(cfg.n))
            assert max_abs(build_unitary(cfg).matrix - ref) <= 1e-12
