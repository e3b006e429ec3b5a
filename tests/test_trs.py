import numpy as np
import pytest

from bandtopo import linalg
from bandtopo.errors import InvalidInput, NotInvariant, OddQuaternionicDimension
from bandtopo.models import kane_mele, spectral_projector
from bandtopo.trs import (
    Grid2,
    ProjectionField,
    QuaternionicBasis,
    SampledProjectionField,
    TRSStructure,
    canonical_j,
    constant_field,
    direct_sum_fields,
    quaternionic_basis,
    trs_conjugate_field,
    validate_field,
)

from helpers import random_projector, random_unitary, rng


def make_trs(n):
    return TRSStructure(canonical_j(n))


def random_t_invariant_subspace(r, trs, n_pairs):
    """Orthonormal columns spanning a random T-invariant subspace."""
    d = trs.dim
    cols = []
    acc = np.zeros((d, 0), dtype=complex)
    for _ in range(n_pairs):
        v = r.standard_normal(d) + 1j * r.standard_normal(d)
        v = v - acc @ (acc.conj().T @ v)
        v = v / np.linalg.norm(v)
        tv = trs.apply(v)
        cols.extend([v, tv])
        acc = np.concatenate([acc, v[:, None], tv[:, None]], axis=1)
    # scramble by a unitary inside the span so the input is not pre-paired
    base = np.stack(cols, axis=1)
    mix = random_unitary(r, 2 * n_pairs)
    return base @ mix


class TestTRSStructure:
    def test_canonical(self):
        t = make_trs(2)
        v = np.array([1.0, 0, 0, 0], dtype=complex)
        tv = t.apply(v)
        # T^2 = -Id
        assert np.allclose(t.apply(tv), -v)

    def test_rejects_bosonic(self):
        with pytest.raises(InvalidInput):
            TRSStructure(np.eye(2))

    def test_rejects_odd(self):
        with pytest.raises(InvalidInput):
            TRSStructure(np.array([[1j]]))


class TestQuaternionicBasis:
    def test_canonical_c2(self):
        # J = [[0,1],[-1,0]] acting on C^2: u1 = e1, Tu1 = -e2 up to phase
        t = TRSStructure(np.array([[0, 1], [-1, 0]], dtype=complex))
        basis = quaternionic_basis(np.eye(2, dtype=complex), t)
        assert basis.n == 1
        gram = basis.matrix.conj().T @ basis.matrix
        assert np.allclose(gram, np.eye(2), atol=1e-12)
        assert abs(abs(np.vdot(basis.matrix[:, 1], np.array([0, -1.0]))) - 1.0) < 1e-12

    def test_odd_dimension(self):
        t = make_trs(2)
        with pytest.raises(OddQuaternionicDimension):
            quaternionic_basis(np.eye(4)[:, :3], t)

    def test_not_invariant(self):
        t = make_trs(2)
        v = np.zeros((4, 2), dtype=complex)
        v[0, 0] = 1.0
        v[1, 1] = 1.0  # span{e1, e2} is not T-invariant for canonical J
        with pytest.raises(NotInvariant):
            quaternionic_basis(v, t)

    def test_random_invariant_subspace_gram_oracle(self):
        r = rng(5)
        t = make_trs(4)  # C^8
        for _ in range(10):
            v = random_t_invariant_subspace(r, t, 2)  # 4-dim subspace of C^8
            basis = quaternionic_basis(v, t)
            b = basis.matrix
            assert linalg.op_norm(b.conj().T @ b - np.eye(4)) <= 1e-10
            assert basis.span_residual <= 1e-8
            # <u_a, T u_b> = 0 for a, b <= n
            n = basis.n
            for a in range(n):
                for c in range(n):
                    tu = t.apply(b[:, c])
                    assert abs(np.vdot(b[:, a], tu)) <= 1e-10
            # coordinate representation of T is the canonical J
            assert basis.j_representation_residual <= 1e-10


class TestValidateField:
    def test_constant_projector(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        f = constant_field(p)
        report = validate_field(f, Grid2(4, 4))
        assert report.passed
        assert max(report.residuals.values()) == 0.0

    def test_trs_defect_flagged(self):
        t = make_trs(2)
        r = rng(9)
        # rank-2 projector that is *not* TRS symmetric, but flagged as such
        p = random_projector(r, 4, 2)
        f = ProjectionField(4, 2, lambda k1, k2: p, trs=t)
        report = validate_field(f, Grid2(4, 4))
        if linalg.op_norm(t.conjugate(p) - p) > 1e-8:
            assert not report.passed
            assert "trs" in report.failures()
            assert report.worst_points["trs"] is not None

    def test_corrupted_node_pinpointed(self):
        r = rng(10)
        p = random_projector(r, 4, 2)
        bump = random_projector(r, 4, 1)
        g = Grid2(6, 8)
        first = (g.nodes1[2], g.nodes2[5])
        second = (g.nodes1[4], g.nodes2[1])

        def evaluator(k1, k2):
            # two equally corrupted nodes: the first in row-major order wins
            if (k1, k2) in (first, second):
                return p + 1e-3 * bump
            return p

        report = validate_field(ProjectionField(4, 2, evaluator), g)
        assert not report.passed
        assert set(report.failures()) == {"idempotency", "rank"}
        assert report.worst_points["idempotency"] == first
        assert report.worst_points["rank"] == first

    def test_idempotent_and_pure(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        f = constant_field(p)
        g = Grid2(4, 4)
        r1 = validate_field(f, g)
        r2 = validate_field(f, g)
        assert r1.residuals == r2.residuals


class TestTrsConjugateField:
    def test_fixed_point_on_symmetric_field(self):
        t = make_trs(2)
        # build a TRS-symmetric constant projector: P spanned by (v, Tv)
        r = rng(13)
        v = r.standard_normal(4) + 1j * r.standard_normal(4)
        v /= np.linalg.norm(v)
        tv = t.apply(v)
        p = np.outer(v, v.conj()) + np.outer(tv, tv.conj())
        f = constant_field(p, trs=t)
        g = trs_conjugate_field(f, t)
        assert linalg.op_norm(g.at(0.3, -0.7) - f.at(0.3, -0.7)) <= 1e-8

    def test_involution(self):
        t = make_trs(2)
        r = rng(17)
        p = random_projector(r, 4, 2)

        def evaluator(k1, k2):
            w, v = np.linalg.eigh(
                p + 0.1 * np.cos(k1) * np.eye(4) + 0.05 * np.sin(k2) * np.eye(4)
            )
            occ = v[:, 2:]
            return occ @ occ.conj().T

        f = ProjectionField(4, 2, evaluator)
        g = trs_conjugate_field(trs_conjugate_field(f, t), t)
        for k in [(0.0, 0.0), (0.5, -1.2), (2.0, 3.0)]:
            assert linalg.op_norm(g.at(*k) - f.at(*k)) <= 1e-12


class TestSampledField:
    def test_reproduces_nodes_and_interpolates(self):
        r = rng(21)
        grid = Grid2(8, 8)
        u = random_unitary(r, 4)
        base = u[:, :2] @ u[:, :2].conj().T

        def evaluator(k1, k2):
            h = base + 0.1 * np.cos(k1) * np.diag([1.0, -1, 1, -1]) + 0.1 * np.sin(k2) * np.diag([1.0, 1, -1, -1])
            w, v = np.linalg.eigh(h)
            occ = v[:, 2:]
            return occ @ occ.conj().T

        f = ProjectionField(4, 2, evaluator)
        samples = f.sample_grid(grid)
        s = SampledProjectionField(samples, rank=2)
        for i in (0, 3):
            for j in (0, 5):
                assert np.array_equal(s.at(grid.nodes1[i], grid.nodes2[j]), samples[i, j])
        # off-node evaluation is a projector of the right rank
        p = s.at(0.1, 0.2)
        assert linalg.op_norm(p @ p - p) <= 1e-12
        assert abs(np.trace(p).real - 2.0) <= 1e-10
        # wrap-around consistency
        assert linalg.op_norm(s.at(0.1 + 2 * np.pi, 0.2) - p) <= 1e-12


class TestSamplePoints:
    def _check_against_at(self, field):
        k1 = np.array([-np.pi, -0.4, 1.3])
        k2 = np.array([0.0, 2.2])[:, None]
        out = field.sample_points(k1, k2)
        assert out.shape == (2, 3, field.dim, field.dim)
        assert len(field._cache) == 0
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], field.at(k1[j], k2[i, 0]))

    def test_spectral_field_matches_at_without_memo(self):
        field, _ = spectral_projector(kane_mele(1.0, 0.06, 0.05, 0.1), 2)
        self._check_against_at(field)

    def test_direct_sum_matches_at_without_memo(self):
        field, _ = spectral_projector(kane_mele(1.0, 0.06, 0.05, 0.1), 2)
        self._check_against_at(direct_sum_fields(field, field))

    def test_wrong_shape_rejected(self):
        f = ProjectionField(2, 1, lambda k1, k2: np.eye(3))
        with pytest.raises(InvalidInput):
            f.sample_points([0.0, 1.0], 0.5)


class TestDirectSum:
    def test_combined_field(self):
        t = make_trs(1)
        r = rng(25)
        v = r.standard_normal(2) + 1j * r.standard_normal(2)
        v /= np.linalg.norm(v)
        tv = t.apply(v)
        p = np.outer(v, v.conj()) + np.outer(tv, tv.conj())  # = Id_2 here
        f = constant_field(p, trs=t)
        g = direct_sum_fields(f, f)
        assert g.dim == 4 and g.rank == 4 and g.trs is not None
        report = validate_field(g, Grid2(4, 4))
        assert report.passed
