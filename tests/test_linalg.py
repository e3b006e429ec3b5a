import numpy as np
import pytest

from bandtopo import linalg
from bandtopo.errors import (
    BranchCutFailure,
    InvalidInput,
    ObstructedLoop,
    RefinementNeeded,
    SingularFactor,
)

from helpers import (
    canonical_j,
    projector_pair_at_distance,
    random_hermitian,
    random_j_transpose_symmetric_unitary,
    random_projector,
    random_symplectic_unitary,
    random_unitary,
    rng,
    smooth_phase_loop,
    smooth_unitary_loop,
)


class TestEigh:
    def test_identity(self):
        w, v = linalg.eigh(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert linalg.unitarity_defect(v) < 1e-11

    def test_pauli_x(self):
        w, v = linalg.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])
        # columns (1,-1)/sqrt(2), (1,1)/sqrt(2) up to phase
        for col, ref in zip(v.T, [np.array([1, -1]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2)]):
            overlap = abs(np.vdot(ref, col))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_oracle_6x6(self):
        h = random_hermitian(rng(7), 6)
        w, v = linalg.eigh(h)
        assert linalg.op_norm((v * w) @ v.conj().T - h) <= 1e-11 * max(1.0, linalg.op_norm(h))
        assert linalg.unitarity_defect(v) <= 1e-11

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInput):
            linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))


class TestStackAudit:
    """op_norm and the defects reduce a stack (..., m, m) to its largest value."""

    def test_stack_equals_max_of_matrices(self):
        r = rng(41)
        stack = r.standard_normal((3, 5, 4, 4)) + 1j * r.standard_normal((3, 5, 4, 4))
        flat = stack.reshape(-1, 4, 4)
        assert linalg.op_norm(stack) == max(linalg.op_norm(a) for a in flat)
        assert linalg.unitarity_defect(stack) == max(linalg.unitarity_defect(a) for a in flat)
        assert linalg.hermiticity_defect(stack) == max(
            linalg.hermiticity_defect(a) for a in flat
        )

    def test_unitary_stack_defect(self):
        r = rng(42)
        stack = np.stack([random_unitary(r, 6) for _ in range(7)])
        assert linalg.unitarity_defect(stack) == max(
            linalg.unitarity_defect(u) for u in stack
        )
        assert linalg.unitarity_defect(stack) <= 1e-12

    def test_empty_stack(self):
        empty = np.zeros((0, 3, 3), dtype=complex)
        assert linalg.op_norm(empty) == 0.0
        assert linalg.unitarity_defect(empty) == 0.0
        assert linalg.hermiticity_defect(empty) == 0.0

    def test_matrix_input_unchanged(self):
        r = rng(43)
        a = r.standard_normal((5, 5)) + 1j * r.standard_normal((5, 5))
        assert linalg.op_norm(a) == float(np.linalg.norm(a, 2))
        assert linalg.unitarity_defect(a) == float(np.linalg.norm(a.conj().T @ a - np.eye(5), 2))
        assert linalg.hermiticity_defect(a) == float(np.linalg.norm(a - a.conj().T, 2))


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(linalg.inv_sqrt_psd(np.eye(3)), np.eye(3))

    def test_scalar_diagonal(self):
        b = linalg.inv_sqrt_psd(np.diag([4.0, 1.0]).astype(complex))
        assert np.allclose(b, np.diag([0.5, 1.0]))

    def test_kato_nagy_factor_at_09(self):
        # multiply-back oracle on A = Id - (P-Q)^2 with ||P-Q|| = 0.9
        p, q = projector_pair_at_distance(rng(3), 6, 2, 0.9)
        a = np.eye(6) - (p - q) @ (p - q)
        b = linalg.inv_sqrt_psd(a)
        assert linalg.hermiticity_defect(b) < 1e-12
        assert linalg.op_norm(b @ b @ a - np.eye(6)) <= 1e-10

    def test_singular_factor(self):
        with pytest.raises(SingularFactor):
            linalg.inv_sqrt_psd(np.diag([1.0, 1e-14]).astype(complex))


class TestUnitaryLog:
    def test_identity(self):
        assert linalg.op_norm(linalg.unitary_log(np.eye(4))) < 1e-12

    def test_scalar_phases(self):
        # diag(i, -i) with the cut falling at -1 resolves to diag(pi/2, -pi/2)
        l = linalg.unitary_log(np.diag([1j, -1j]))
        assert np.allclose(sorted(np.diag(l).real), [-np.pi / 2, np.pi / 2], atol=1e-12)
        assert linalg.op_norm(linalg.expm_i_hermitian(l) - np.diag([1j, -1j])) < 1e-12

    def test_roundtrip_200_random(self):
        r = rng(11)
        for _ in range(200):
            u = random_unitary(r, r.integers(2, 7))
            l = linalg.unitary_log(u)
            assert linalg.op_norm(linalg.expm_i_hermitian(l) - u) <= 1e-9
            assert linalg.hermiticity_defect(l) < 1e-12

    def test_j_constrained_log(self):
        r = rng(13)
        for _ in range(20):
            u, j, _ = random_j_transpose_symmetric_unitary(r, 3)
            l = linalg.unitary_log(u, j_structure=j)
            assert linalg.op_norm(j @ l.T @ j.conj().T - l) <= 1e-8
            assert linalg.op_norm(linalg.expm_i_hermitian(l) - u) <= 1e-9

    def test_branch_cut_failure(self):
        # 16 evenly spaced eigenphases hit every candidate cut
        phases = -np.pi + 2 * np.pi * np.arange(16) / 16
        u = np.diag(np.exp(1j * phases))
        with pytest.raises(BranchCutFailure):
            linalg.unitary_log(u)


class TestWinding:
    def test_unit_winding(self):
        k = linalg.grid_nodes(32)
        assert linalg.winding(np.exp(1j * k)) == 1

    def test_constant(self):
        assert linalg.winding(np.full(16, 1.0 + 0j)) == 0

    def test_double(self):
        k = linalg.grid_nodes(32)
        assert linalg.winding(np.exp(2j * k)) == 2

    def test_under_resolved(self):
        k = linalg.grid_nodes(8)
        with pytest.raises(RefinementNeeded):
            linalg.winding(np.exp(3j * k))

    def test_homomorphism_property(self):
        r = rng(17)
        for _ in range(25):
            f = smooth_phase_loop(r, 64, int(r.integers(-2, 3)))
            g = smooth_phase_loop(r, 64, int(r.integers(-2, 3)))
            assert linalg.winding(f * g) == linalg.winding(f) + linalg.winding(g)

    def test_reflective_loops_wind_zero(self):
        # lambda(k) = lambda(-k) on a negation-closed grid
        r = rng(19)
        n = 64
        k = linalg.grid_nodes(n)
        for _ in range(10):
            coeffs = r.standard_normal(3)
            phase = sum(c * np.cos((m + 1) * k) for m, c in enumerate(coeffs))
            assert linalg.winding(np.exp(1j * phase)) == 0

    def test_conjugate_reflective_pinned_is_even(self):
        # lambda(-k) = conj(lambda(k)) with lambda(0) = lambda(pi) = 1
        r = rng(23)
        n = 128
        k = linalg.grid_nodes(n)
        for _ in range(10):
            m_even = 2 * int(r.integers(-2, 3))
            phase = m_even * k.copy()
            for h in range(1, 4):
                phase += 0.3 * r.standard_normal() * np.sin(h * k)
            w = linalg.winding(np.exp(1j * phase))
            assert w % 2 == 0
            assert w == m_even

    def test_symplectic_unitary_determinant(self):
        r = rng(29)
        for _ in range(100):
            s, _, _ = random_symplectic_unitary(r, int(r.integers(1, 4)))
            assert abs(np.linalg.det(s) - 1.0) <= 1e-10


class TestContractLoop:
    def test_constant_loop(self):
        samples = np.repeat(np.eye(3)[None], 16, axis=0)
        h = linalg.contract_loop(linalg.UnitaryLoop(samples))
        assert np.allclose(h.snapshots[0], samples)
        final = h.snapshots[-1]
        assert np.allclose(final, final[0])

    def test_counter_rotating_diagonal(self):
        k = linalg.grid_nodes(32)
        samples = np.zeros((32, 2, 2), dtype=complex)
        samples[:, 0, 0] = np.exp(1j * k)
        samples[:, 1, 1] = np.exp(-1j * k)
        h = linalg.contract_loop(linalg.UnitaryLoop(samples))
        report = h.verify()
        assert report["unitarity"] <= 1e-9
        assert report["max_snapshot_step"] <= 1.0
        # winding recomputed per snapshot stays zero
        assert set(report["snapshot_windings"]) == {0}
        final = h.snapshots[-1]
        assert np.max(np.abs(final - final[0])) < 1e-9

    def test_obstructed(self):
        k = linalg.grid_nodes(32)
        samples = np.zeros((32, 2, 2), dtype=complex)
        samples[:, 0, 0] = np.exp(1j * k)
        samples[:, 1, 1] = 1.0
        with pytest.raises(ObstructedLoop):
            linalg.contract_loop(linalg.UnitaryLoop(samples))

    def test_random_su_loops(self):
        r = rng(31)
        for m in (2, 3, 4):
            samples = smooth_unitary_loop(r, 48, m, det_winding=0)
            h = linalg.contract_loop(linalg.UnitaryLoop(samples))
            report = h.verify()
            assert report["unitarity"] <= 1e-9
            assert set(report["snapshot_windings"]) == {0}
            final = h.snapshots[-1]
            assert np.max(np.abs(final - final[0])) < 1e-8


class TestConnectLoops:
    def test_equal_loops(self):
        samples = smooth_unitary_loop(rng(37), 32, 3, det_winding=1)
        h = linalg.connect_loops(linalg.UnitaryLoop(samples), linalg.UnitaryLoop(samples))
        assert np.array_equal(h.snapshots[0], samples)
        assert np.array_equal(h.snapshots[-1], samples)

    def test_identity_to_contractible(self):
        r = rng(41)
        n = 32
        id_loop = np.repeat(np.eye(3)[None], n, axis=0)
        other = smooth_unitary_loop(r, n, 3, det_winding=0)
        h = linalg.connect_loops(linalg.UnitaryLoop(id_loop), linalg.UnitaryLoop(other))
        assert np.array_equal(h.snapshots[0], id_loop)
        assert np.array_equal(h.snapshots[-1], other)

    def test_two_winding2_loops_dim4(self):
        r = rng(43)
        a = smooth_unitary_loop(r, 48, 4, det_winding=2)
        b = smooth_unitary_loop(r, 48, 4, det_winding=2)
        h = linalg.connect_loops(linalg.UnitaryLoop(a), linalg.UnitaryLoop(b))
        assert h.unitarity_defect() <= 1e-9
        assert np.array_equal(h.snapshots[0], a)
        assert np.array_equal(h.snapshots[-1], b)
        assert h.max_snapshot_step() <= 1.0

    def test_winding_mismatch(self):
        r = rng(47)
        a = smooth_unitary_loop(r, 32, 3, det_winding=0)
        b = smooth_unitary_loop(r, 32, 3, det_winding=1)
        with pytest.raises(ObstructedLoop):
            linalg.connect_loops(linalg.UnitaryLoop(a), linalg.UnitaryLoop(b))

    def test_resampled_homotopy(self):
        r = rng(53)
        a = smooth_unitary_loop(r, 32, 2, det_winding=0)
        b = smooth_unitary_loop(r, 32, 2, det_winding=0)
        h = linalg.connect_loops(linalg.UnitaryLoop(a), linalg.UnitaryLoop(b), n_steps=16)
        assert h.n_steps == 16
        assert np.array_equal(h.snapshots[0], a)
        assert np.array_equal(h.snapshots[-1], b)
        assert h.max_snapshot_step() <= 1.0


class TestRotationMapping:
    def test_exact_mapping(self):
        r = rng(59)
        for _ in range(50):
            m = int(r.integers(2, 6))
            a = r.standard_normal(m) + 1j * r.standard_normal(m)
            a = a / np.linalg.norm(a)
            b = r.standard_normal(m) + 1j * r.standard_normal(m)
            b = b / np.linalg.norm(b)
            u = linalg.rotation_mapping(a, b)
            assert linalg.unitarity_defect(u) < 1e-12
            assert np.linalg.norm(u @ a - b) < 1e-12

    def test_antipodal(self):
        a = np.array([1.0, 0.0], dtype=complex)
        u = linalg.rotation_mapping(a, -a)
        assert np.linalg.norm(u @ a + a) < 1e-14
