import numpy as np
import pytest

from bandtopo import linalg
from bandtopo.errors import GapClosed, GenerationFailed, InvalidInput
from bandtopo.models import (
    BlochHamiltonian,
    GapWindow,
    gauge_transform,
    haldane,
    kane_mele,
    load_bloch,
    random_gapped_hamiltonian,
    random_gauge_map,
    random_trs_hamiltonian,
    save_bloch,
    spectral_projector,
)
from bandtopo.trs import Grid2, TRSStructure, canonical_j, validate_field

from helpers import rng


class TestSpectralProjector:
    def test_constant_diagonal(self):
        h = BlochHamiltonian(2, {(0, 0): np.diag([-1.0, 1.0]).astype(complex)})
        field, window = spectral_projector(h, 1, validation_grid=Grid2(8, 8))
        assert window.min_gap == pytest.approx(2.0)
        p = field.at(0.3, -0.4)
        assert np.allclose(p, np.diag([1.0, 0.0]))

    def test_kane_mele_rank2_trs(self):
        km = kane_mele(1.0, 0.06, 0.05, 0.1)
        field, window = spectral_projector(km, 2, validation_grid=Grid2(32, 32))
        assert field.trs is not None and field.rank == 2
        assert window.min_gap > 0.1
        report = validate_field(field, Grid2(8, 8))
        assert report.passed
        # projector commutes with the Hamiltonian
        for k in ((0.2, 0.7), (-1.0, 2.2)):
            p, h = field.at(*k), km.at(*k)
            assert linalg.op_norm(p @ h - h @ p) <= 1e-10

    def test_gap_closure_at_phase_boundary(self):
        # lambda_v = 3*sqrt(3)*lambda_so closes the gap at the Dirac momentum
        # K = (2*pi/3, 4*pi/3); a grid divisible by 6 contains it exactly
        km = kane_mele(1.0, 0.06, 0.0, 3.0 * np.sqrt(3.0) * 0.06)
        with pytest.raises(GapClosed) as err:
            spectral_projector(km, 2, validation_grid=Grid2(48, 48))
        k_star = np.mod(np.asarray(err.value.k_point), 2 * np.pi)
        valleys = [
            np.array([2 * np.pi / 3, 4 * np.pi / 3]),
            np.array([4 * np.pi / 3, 2 * np.pi / 3]),
        ]
        dist = min(
            np.linalg.norm(np.minimum(np.abs(k_star - v), 2 * np.pi - np.abs(k_star - v)))
            for v in valleys
        )
        assert dist < 0.3


class TestBlochEvaluation:
    def test_at_equals_term_by_term_sum(self):
        # the harmonics are summed from zero in dict order, to the last bit
        # (signed zeros included)
        models = [kane_mele(1.0, 0.06, 0.05, 0.1), random_trs_hamiltonian(8, 4, 2, seed=3)[0]]
        points = [(0.0, 0.0), (np.pi, -np.pi), (0.3, -2.1), (-1.7, 0.9)]
        for h in models:
            for k1, k2 in points:
                ref = np.zeros((h.dim, h.dim), dtype=complex)
                for (m1, m2), a in h.harmonics.items():
                    ref = ref + a * np.exp(1j * (m1 * k1 + m2 * k2))
                ref = 0.5 * (ref + ref.conj().T)
                out = h.at(k1, k2)
                assert np.array_equal(out, ref)
                assert np.array_equal(np.signbit(out.view(float)), np.signbit(ref.view(float)))


class TestStackedEvaluation:
    def test_stacked_at_equals_pointwise_at(self):
        # a stack of nodes gives, bit for bit, the matrices of one call per node
        models = [
            kane_mele(1.0, 0.06, 0.05, 0.1),
            haldane(1.0, 0.1, np.pi / 2, 0.2),
            random_trs_hamiltonian(8, 4, 2, seed=3)[0],
        ]
        k1 = np.array([0.0, -0.0, np.pi, -1.7, 2.4])[:, None]
        k2 = np.array([0.0, -np.pi, -0.0, 0.9, -2.1, 3.0])
        for h in models:
            out = h.at(k1, k2)
            assert out.shape == (5, 6, h.dim, h.dim)
            for i in range(5):
                for j in range(6):
                    ref = h.at(float(k1[i, 0]), float(k2[j]))
                    assert np.array_equal(out[i, j], ref)
                    assert np.array_equal(
                        np.signbit(out[i, j].view(float)), np.signbit(ref.view(float))
                    )


class TestHaldane:
    def test_requires_hopping(self):
        with pytest.raises(InvalidInput):
            haldane(0.0, 0.1, 0.5, 0.0)

    def test_hermitian_and_periodic(self):
        h = haldane(1.0, 0.1, np.pi / 2, 0.2)
        for k in ((0.0, 0.0), (1.1, -2.3)):
            m = h.at(*k)
            assert linalg.hermiticity_defect(m) < 1e-12
            assert linalg.op_norm(h.at(k[0] + 2 * np.pi, k[1]) - m) < 1e-12


class TestKaneMele:
    def test_trs_coefficient_condition(self):
        km = kane_mele(1.0, 0.06, 0.05, 0.1)
        assert km.trs is not None
        assert km.trs_coefficient_residual(km.trs) <= 1e-12

    def test_trs_of_fiber(self):
        km = kane_mele(1.0, 0.06, 0.05, 0.1)
        t = km.trs
        for k in ((0.4, 1.0), (-2.0, 0.3)):
            lhs = t.conjugate(km.at(*k))
            rhs = km.at(-k[0], -k[1])
            assert linalg.op_norm(lhs - rhs) <= 1e-10

    def test_rashba_continuity(self):
        a = kane_mele(1.0, 0.06, 1e-6, 0.1)
        b = kane_mele(1.0, 0.06, 0.0, 0.1)
        worst = 0.0
        for k1 in np.linspace(-np.pi, np.pi, 9):
            for k2 in np.linspace(-np.pi, np.pi, 9):
                worst = max(worst, linalg.op_norm(a.at(k1, k2) - b.at(k1, k2)))
        assert worst <= 1e-4


class TestRandomModels:
    def test_reproducible(self):
        a = random_trs_hamiltonian(8, 4, 2, seed=1)
        b = random_trs_hamiltonian(8, 4, 2, seed=1)
        assert sorted(a[0].harmonics) == sorted(b[0].harmonics)
        for m in a[0].harmonics:
            assert np.array_equal(a[0].harmonics[m], b[0].harmonics[m])

    def test_valid_trs_field(self):
        bloch, field, window = random_trs_hamiltonian(8, 4, 2, seed=1)
        assert window.min_gap >= 1e-3
        report = validate_field(field, Grid2(8, 8))
        assert report.passed

    def test_parity_rejection(self):
        with pytest.raises(InvalidInput):
            random_trs_hamiltonian(7, 4, 2, seed=1)
        with pytest.raises(InvalidInput):
            random_trs_hamiltonian(8, 3, 2, seed=1)
        with pytest.raises(InvalidInput):
            random_trs_hamiltonian(4, 4, 2, seed=1)

    def test_non_symmetric_generator(self):
        _, field, window = random_gapped_hamiltonian(4, 2, 1, seed=5)
        assert field.trs is None
        assert window.min_gap >= 1e-3


class TestGaugeTransform:
    def test_identity_gauge(self):
        _, field, _ = random_gapped_hamiltonian(4, 2, 1, seed=5)
        out = gauge_transform(field, lambda k1, k2: np.eye(4), symmetric=False)
        for k in ((0.0, 0.0), (0.7, -0.9)):
            assert linalg.op_norm(out.at(*k) - field.at(*k)) <= 1e-14

    def test_symmetric_gauge_keeps_trs(self):
        bloch, field, _ = random_trs_hamiltonian(8, 4, 2, seed=2)
        w = random_gauge_map(8, seed=3, symmetric=True, trs=field.trs)
        out = gauge_transform(field, w, symmetric=True)
        assert out.trs is not None
        report = validate_field(out, Grid2(8, 8))
        assert report.passed

    def test_plain_gauge_drops_trs(self):
        bloch, field, _ = random_trs_hamiltonian(8, 4, 2, seed=2)
        w = random_gauge_map(8, seed=4, symmetric=False)
        out = gauge_transform(field, w, symmetric=False)
        assert out.trs is None

    def test_rejects_nonunitary(self):
        _, field, _ = random_gapped_hamiltonian(4, 2, 1, seed=5)
        with pytest.raises(InvalidInput):
            gauge_transform(field, lambda k1, k2: 2.0 * np.eye(4), symmetric=False)

    def test_rejects_aperiodic(self):
        _, field, _ = random_gapped_hamiltonian(4, 2, 1, seed=5)

        def w(k1, k2):
            return np.diag([np.exp(0.5j * k1), 1.0, 1.0, 1.0])

        with pytest.raises(InvalidInput):
            gauge_transform(field, w, symmetric=False)


class TestHarmonicFiles:
    def test_roundtrip(self, tmp_path):
        km = kane_mele(1.0, 0.06, 0.05, 0.1)
        path = tmp_path / "km.json"
        save_bloch(km, path)
        back = load_bloch(path)
        assert back.dim == 4 and back.trs is not None
        assert sorted(back.harmonics) == sorted(km.harmonics)
        for m in km.harmonics:
            assert np.array_equal(back.harmonics[m], km.harmonics[m])

    def test_no_trs_roundtrip(self, tmp_path):
        h = haldane(1.0, 0.1, np.pi / 2, 0.0)
        path = tmp_path / "h.json"
        save_bloch(h, path)
        back = load_bloch(path)
        assert back.trs is None
        for k in ((0.3, 0.4),):
            assert linalg.op_norm(back.at(*k) - h.at(*k)) < 1e-15

    def test_bytes_stable(self, tmp_path):
        h = haldane(1.0, 0.1, np.pi / 2, 0.0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_bloch(h, p1)
        save_bloch(h, p2)
        assert p1.read_bytes() == p2.read_bytes()
