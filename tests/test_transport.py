import numpy as np
import pytest

from bandtopo import linalg
from bandtopo.errors import TooFar
from bandtopo.models import kane_mele, random_gapped_hamiltonian, spectral_projector
from bandtopo.transport import kato_nagy, transport_1d, transport_2d
from bandtopo.trs import Grid2

from helpers import projector_pair_at_distance, random_projector, random_unitary, rng


class TestKatoNagy:
    def test_equal_projectors(self):
        p = random_projector(rng(1), 4, 2)
        assert linalg.op_norm(kato_nagy(p, p) - np.eye(4)) <= 1e-12

    def test_planar_rotation_closed_form(self):
        # rank-1 projectors onto e1 and (cos th, sin th): the intertwiner is
        # the rotation by th
        th = 0.3
        p = np.diag([1.0, 0.0]).astype(complex)
        v = np.array([np.cos(th), np.sin(th)], dtype=complex)
        q = np.outer(v, v.conj())
        u = kato_nagy(p, q)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert linalg.op_norm(u - rot) <= 1e-12

    def test_orthogonal_pair_too_far(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(TooFar):
            kato_nagy(p, q)

    def test_intertwining_at_09(self):
        r = rng(3)
        for _ in range(25):
            p, q = projector_pair_at_distance(r, 6, 3, 0.9)
            u = kato_nagy(p, q)
            assert linalg.unitarity_defect(u) <= 1e-12
            assert linalg.op_norm(u @ p @ u.conj().T - q) <= 1e-12

    def test_continuity_under_perturbation(self):
        r = rng(5)
        worst = 0.0
        for _ in range(20):
            p, q = projector_pair_at_distance(r, 5, 2, 0.5)
            u0 = kato_nagy(p, q)
            # perturb q by ~1e-6 along a unitary conjugation
            h = 1e-6 * np.diag(r.standard_normal(5))
            w, v = np.linalg.eigh(h)
            u_small = (v * np.exp(1j * w)) @ v.conj().T
            q2 = u_small @ q @ u_small.conj().T
            u1 = kato_nagy(p, q2)
            worst = max(worst, linalg.op_norm(u1 - u0))
        assert worst <= 1e-4


class TestTransport1D:
    def test_constant_field(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        res = transport_1d(lambda k: p, 16)
        assert np.allclose(res.u, np.eye(2))

    def test_rotating_frame(self):
        def field(k):
            e = np.array([np.cos(k), np.sin(k)], dtype=complex)
            return np.outer(e, e.conj())

        res = transport_1d(field, 64)
        assert np.array_equal(res.u[-1], res.u[0])  # exact closure
        p0 = field(0.0)
        nodes = np.append(linalg.grid_nodes(64), np.pi)
        for j, k in enumerate(nodes):
            resid = linalg.op_norm(res.u[j] @ p0 @ res.u[j].conj().T - field(k))
            assert resid <= 1e-9

    def test_symmetric_line(self):
        km = kane_mele(1.0, 0.06, 0.05, 0.1)
        field, _ = spectral_projector(km, 2)
        res = transport_1d(lambda k2: field.at(0.0, k2), 32, trs=field.trs)
        t = field.trs
        nodes = np.append(linalg.grid_nodes(32), np.pi)
        worst = 0.0
        for j in range(33):
            mirrored = t.conjugate(res.u[j])
            worst = max(worst, linalg.op_norm(mirrored - res.u[32 - j]))
        assert worst <= 1e-8
        base = field.at(0.0, 0.0)
        for j, k in enumerate(nodes):
            assert linalg.op_norm(res.u[j] @ base @ res.u[j].conj().T - field.at(0.0, k)) <= 1e-8


class TestTransport2D:
    def test_constant_field_identity_sheet(self):
        from bandtopo.trs import constant_field

        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        f = constant_field(p)
        sheet = transport_2d(f, Grid2(8, 8))
        assert np.allclose(sheet.u, np.eye(4))
        assert sheet.intertwining_residual <= 1e-13

    def test_haldane_sheet_intertwines(self):
        from bandtopo.models import haldane

        h = haldane(1.0, 0.1, np.pi / 2, 0.0)
        field, _ = spectral_projector(h, 1)
        sheet = transport_2d(field, Grid2(32, 32))
        assert sheet.intertwining_residual <= 1e-8
        assert linalg.op_norm(sheet.u[16, 16] - np.eye(2)) <= 1e-12  # U(0,0) = Id

    def test_kane_mele_symmetric_sheet(self):
        km = kane_mele(1.0, 0.06, 0.05, 0.1)
        field, _ = spectral_projector(km, 2)
        sheet = transport_2d(field, Grid2(16, 16), symmetric=True)
        assert sheet.intertwining_residual <= 1e-8
        assert sheet.symmetry_residual <= 1e-8

    def test_sheet_audits_match_per_node_loop(self):
        # the row-batched audits reproduce the per-node reference exactly
        km = kane_mele(1.0, 0.06, 0.05, 0.1)
        field, _ = spectral_projector(km, 2)
        sheet = transport_2d(field, Grid2(8, 8), symmetric=True)
        t_nodes = np.append(linalg.grid_nodes(8), np.pi)
        k2_nodes = linalg.grid_nodes(8)
        base = field.at(0.0, 0.0)
        inter = sym = 0.0
        for i, t in enumerate(t_nodes):
            for j, k2 in enumerate(k2_nodes):
                u = sheet.u[i, j]
                inter = max(inter, linalg.op_norm(u @ base @ u.conj().T - field.at(t, k2)))
                if i >= 4:
                    mirror = field.trs.conjugate(u) - sheet.u[8 - i, (-j) % 8]
                    sym = max(sym, linalg.op_norm(mirror))
                else:
                    assert np.array_equal(
                        u, field.trs.conjugate(sheet.u[8 - i, (-j) % 8])
                    )
        assert sheet.intertwining_residual == inter
        assert sheet.symmetry_residual == sym

    def test_symmetric_sheet_matches_1d_line(self):
        km = kane_mele(1.0, 0.06, 0.05, 0.1)
        field, _ = spectral_projector(km, 2)
        grid = Grid2(16, 16)
        sheet = transport_2d(field, grid, symmetric=True)
        line = transport_1d(lambda k2: field.at(0.0, k2), 16, trs=field.trs)
        assert np.max(np.abs(sheet.u[8] - line.u[:16])) <= 1e-9

    def test_gauge_covariance_residual_level(self):
        # transporting W P W^{-1} with constant W stays a valid transport
        _, field, _ = random_gapped_hamiltonian(4, 2, 1, seed=8)
        w = random_unitary(rng(9), 4)
        from bandtopo.trs import ProjectionField

        conj_field = ProjectionField(
            4, 2, lambda k1, k2: w @ field.at(k1, k2) @ w.conj().T
        )
        sheet = transport_2d(conj_field, Grid2(16, 16))
        assert sheet.intertwining_residual <= 1e-8
