import numpy as np
import pytest

from bandtopo import invariants, linalg
from bandtopo.errors import InvalidInput, RefinementNeeded, SymmetryBroken
from bandtopo.invariants import (
    InvariantReport,
    _wilson_crossings,
    _wilson_eigenphases,
    chern,
    delta,
    fhs_chern,
    matching_family,
    occupied_basis,
    wilson_z2,
)
from bandtopo.models import (
    gauge_transform,
    haldane,
    kane_mele,
    random_gapped_hamiltonian,
    random_gauge_map,
    random_trs_hamiltonian,
    spectral_projector,
)
from bandtopo.transport import transport_2d
from bandtopo.trs import (
    Grid2,
    canonical_j,
    constant_field,
    direct_sum_fields,
    quaternionic_basis,
)

from helpers import random_symplectic_unitary, rng


def km_field(lambda_v=0.1, lambda_r=0.05, lambda_so=0.06):
    model = kane_mele(1.0, lambda_so, lambda_r, lambda_v)
    field, _ = spectral_projector(model, 2)
    return field

def haldane_field(t2=0.1, phi=np.pi / 2, m_sub=0.0):
    model = haldane(1.0, t2, phi, m_sub)
    field, _ = spectral_projector(model, 1)
    return field


def trs_constant_field(n_pairs, dim_half, seed=0):
    """Constant TRS projector of rank 2*n_pairs in dimension 2*dim_half."""
    from bandtopo.trs import TRSStructure

    t = TRSStructure(canonical_j(dim_half))
    r = rng(seed)
    p = np.zeros((2 * dim_half, 2 * dim_half), dtype=complex)
    acc = np.zeros((2 * dim_half, 0), dtype=complex)
    for _ in range(n_pairs):
        v = r.standard_normal(2 * dim_half) + 1j * r.standard_normal(2 * dim_half)
        v = v - acc @ (acc.conj().T @ v)
        v /= np.linalg.norm(v)
        tv = t.apply(v)
        p += np.outer(v, v.conj()) + np.outer(tv, tv.conj())
        acc = np.concatenate([acc, v[:, None], tv[:, None]], axis=1)
    return constant_field(p, trs=t)


class TestMatchingFamily:
    def test_constant_field_identity_family(self):
        f = trs_constant_field(1, 2)
        sheet = transport_2d(f, Grid2(8, 8))
        basis = occupied_basis(sheet.base_projector, 2)
        fam = matching_family(sheet, basis)
        assert np.max(np.abs(fam.alpha - np.eye(2))) <= 1e-12

    def test_haldane_matching_winding_equals_fhs(self):
        f = haldane_field()
        sheet = transport_2d(f, Grid2(24, 24))
        basis = occupied_basis(sheet.base_projector, 1)
        fam = matching_family(sheet, basis)
        assert linalg.winding(fam.det_loop()) == fhs_chern(f, Grid2(24, 24))

    def test_kane_mele_j_constraint(self):
        f = km_field()
        sheet = transport_2d(f, Grid2(16, 16), symmetric=True)
        occ = occupied_basis(sheet.base_projector, 2)
        qb = quaternionic_basis(occ, f.trs)
        fam = matching_family(sheet, qb)
        assert fam.symmetric
        assert fam.j_residual <= 1e-7

    def test_plain_basis_never_symmetric(self):
        f = km_field()
        sheet = transport_2d(f, Grid2(16, 16), symmetric=True)
        occ = occupied_basis(sheet.base_projector, 2)
        fam = matching_family(sheet, occ)
        assert not fam.symmetric


class TestRefinementLadder:
    def test_failed_attempts_are_released(self):
        # a refined attempt must not keep the data of the attempts before it
        import gc
        import weakref

        from bandtopo.errors import RefinementNeeded, Unresolved
        from bandtopo.invariants import _run_ladder

        class Attempt:
            pass

        refs = []

        def pipeline(g):
            attempt = Attempt()
            refs.append(weakref.ref(attempt))
            if g.n1 < 16:
                raise RefinementNeeded(f"coarse at {g.n1}", axis="t")
            return g.n1

        gc.disable()
        try:
            assert _run_ladder(Grid2(4, 4), pipeline, 3) == (16, 2)
            assert [r() is None for r in refs] == [True, True, True]
        finally:
            gc.enable()
        with pytest.raises(Unresolved, match="exhausted at depth 1: coarse at 8"):
            _run_ladder(Grid2(4, 4), pipeline, 1)


class TestChern:
    def test_constant(self):
        f = trs_constant_field(1, 2)
        assert chern(f, Grid2(8, 8)).value == 0

    def test_haldane_topological(self):
        rep = chern(haldane_field(), Grid2(24, 24))
        assert abs(rep.value) == 1
        assert rep.value == fhs_chern(haldane_field(), Grid2(24, 24))

    def test_trs_field_has_zero_chern(self):
        _, field, _ = random_trs_hamiltonian(8, 4, 2, seed=11)
        assert chern(field, Grid2(16, 16)).value == 0

    def test_gauge_invariance(self):
        f = haldane_field()
        c0 = chern(f, Grid2(16, 16)).value
        for seed in (1, 2, 3):
            w = random_gauge_map(2, seed=seed, symmetric=False)
            assert chern(gauge_transform(f, w), Grid2(16, 16)).value == c0

    def test_additivity(self):
        r = rng(61)
        for seeds in [(1, 2), (3, 4), (5, 6)]:
            _, fa, _ = random_gapped_hamiltonian(4, 1, 1, seed=seeds[0])
            fb = haldane_field(m_sub=0.1 * seeds[1])
            total = direct_sum_fields(fa, fb)
            ca = chern(fa, Grid2(16, 16)).value
            cb = chern(fb, Grid2(16, 16)).value
            assert chern(total, Grid2(16, 16)).value == ca + cb


class TestFhs:
    def test_constant(self):
        f = trs_constant_field(1, 2)
        assert fhs_chern(f, Grid2(8, 8)) == 0

    def test_degree_one_sphere_map(self):
        # rank-1 projector from an explicit degree-1 map T^2 -> S^2
        def h_eval(k1, k2):
            d = np.array([np.sin(k1), np.sin(k2), -1.0 + np.cos(k1) + np.cos(k2)])
            sx = np.array([[0, 1], [1, 0]], dtype=complex)
            sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
            sz = np.diag([1.0, -1.0]).astype(complex)
            return d[0] * sx + d[1] * sy + d[2] * sz

        from bandtopo.trs import ProjectionField

        def evaluator(k1, k2):
            w, v = np.linalg.eigh(h_eval(k1, k2))
            occ = v[:, :1]
            return occ @ occ.conj().T

        f = ProjectionField(2, 1, evaluator)
        c = fhs_chern(f, Grid2(24, 24))
        assert abs(c) == 1
        assert chern(f, Grid2(24, 24)).value == c

    def test_agreement_on_random_fields(self):
        for seed in range(5):
            _, field, _ = random_gapped_hamiltonian(4, 2, 1, seed=100 + seed)
            assert chern(field, Grid2(16, 16)).value == fhs_chern(field, Grid2(16, 16))


class TestDelta:
    def test_constant_trs_projector(self):
        f = trs_constant_field(1, 2)
        rep = delta(f, Grid2(8, 8))
        assert rep.value == 1

    def test_kane_mele_phases(self):
        assert delta(km_field(lambda_v=0.1)).value == -1
        assert delta(km_field(lambda_v=0.5)).value == 1

    def test_rejects_plain_fields(self):
        f = haldane_field()
        with pytest.raises(InvalidInput):
            delta(f)

    def test_wilson_agreement_sample(self):
        for seed in (1, 2, 3):
            _, field, _ = random_trs_hamiltonian(8, 4, 2, seed=seed)
            assert delta(field, Grid2(16, 16)).value == wilson_z2(field, Grid2(32, 64))

    def test_well_posedness_bases_and_steps(self):
        f = km_field()
        r = rng(71)
        values = set()
        for i in range(3):
            s, _, _ = random_symplectic_unitary(r, 1)
            values.add(delta(f, Grid2(16, 16), basis_rotation=s).value)
        values.add(delta(f, Grid2(16, 16), step_target=0.15).value)
        assert values == {-1}

    def test_symmetric_gauge_invariance(self):
        _, field, _ = random_trs_hamiltonian(8, 4, 2, seed=21)
        d0 = delta(field, Grid2(16, 16)).value
        for seed in (31, 32):
            w = random_gauge_map(8, seed=seed, symmetric=True, trs=field.trs)
            moved = gauge_transform(field, w, symmetric=True)
            assert delta(moved, Grid2(16, 16)).value == d0

    def test_delta_additivity(self):
        f_topo = km_field(lambda_v=0.1)
        f_triv = km_field(lambda_v=0.5)
        for a, b in [(f_topo, f_triv), (f_topo, f_topo), (f_triv, f_triv)]:
            ab = direct_sum_fields(a, b)
            da = delta(a, Grid2(16, 16)).value
            db = delta(b, Grid2(16, 16)).value
            assert delta(ab, Grid2(16, 16)).value == da * db

    def test_integrality_diagnostics(self):
        rep = delta(km_field(), Grid2(16, 16))
        assert rep.diagnostics["rounding_residual"] <= 1e-6
        assert rep.diagnostics["det_reflectivity"] <= 1e-8
        assert rep.diagnostics["j_constraint_residual"] <= 1e-7


def line_eigenphases(field, k2, n1):
    """Wilson-loop eigenphases of one line, node by node through the memo."""
    nodes = linalg.grid_nodes(n1)
    _, v = np.linalg.eigh(np.array([field.at(k1, k2) for k1 in nodes]))
    frames = v[..., field.dim - field.rank :]
    links = linalg.polar_unitary(linalg.dagger(frames) @ np.roll(frames, -1, axis=0))
    w = np.eye(field.rank, dtype=complex)
    for i in range(n1):
        w = w @ links[i]
    vals = np.linalg.eigvals(w)
    return np.sort(np.angle(vals / np.abs(vals)))


def track_eigenphases(field, n1, n2):
    """Eigenphases of the n2 + 1 lines of a separate pass over [0, pi]."""
    track = [idx * np.pi / n2 for idx in range(n2 + 1)]
    return np.array([line_eigenphases(field, k2, n1) for k2 in track])


def two_pass_parity(field, n1, n2):
    """Crossing count of a separate pass over n2 steps of [0, pi]."""
    phases = track_eigenphases(field, n1, n2)
    ref = invariants._reference_line(phases[0], phases[-1])
    endpoint_margin = min(
        np.min(invariants._circ_dist(phases[0], ref)),
        np.min(invariants._circ_dist(phases[-1], ref)),
    )
    if endpoint_margin < 1e-4:
        raise RefinementNeeded("reference line touches an endpoint phase", axis="k2")
    crossings = 0
    for step in range(n2):
        crossings += invariants._match_and_count(phases[step], phases[step + 1], ref, np.pi / 2)
    return crossings


class TestWilson:
    def test_constant(self):
        f = trs_constant_field(2, 4)
        assert wilson_z2(f, Grid2(16, 32)) == 1

    def test_kane_mele_topological(self):
        assert wilson_z2(km_field(lambda_v=0.1), Grid2(64, 256)) == -1

    def test_direct_sum_of_two_topological(self):
        f = km_field(lambda_v=0.1)
        double = direct_sum_fields(f, f)
        assert wilson_z2(double, Grid2(32, 128)) == 1

    def test_homotopy_step_stability(self):
        # interpolating between nearby TRS fields preserves delta
        f0 = km_field(lambda_v=0.25)
        f1 = km_field(lambda_v=0.28)
        worst = 0.0
        for k1 in np.linspace(-np.pi, np.pi, 7):
            for k2 in np.linspace(-np.pi, np.pi, 7):
                worst = max(worst, linalg.op_norm(f0.at(k1, k2) - f1.at(k1, k2)))
        assert worst <= 0.5
        assert delta(f0, Grid2(16, 16)).value == delta(f1, Grid2(16, 16)).value

    def test_blocked_eigenphases_equal_per_line(self, monkeypatch):
        # three lines per block, so the last block is a partial one
        monkeypatch.setattr(invariants, "_WILSON_BLOCK", 3 * 16)
        for field in (km_field(), random_trs_hamiltonian(8, 4, 2, seed=3)[1]):
            track = np.arange(9) * np.pi / 8
            out = _wilson_eigenphases(field, track, 16)
            ref = np.array([line_eigenphases(field, k2, 16) for k2 in track])
            assert np.array_equal(out, ref)

    def test_one_pass_crossings_equal_two_passes(self, monkeypatch):
        counted = []
        count = invariants._crossing_count

        def recording_count(phases):
            counted.append(phases.copy())
            return count(phases)

        monkeypatch.setattr(invariants, "_crossing_count", recording_count)
        cases = ((km_field(), 32, 32), (random_trs_hamiltonian(8, 4, 2, seed=5)[1], 32, 16))
        for field, n1, n_track in cases:
            counted.clear()
            ref = (two_pass_parity(field, n1, n_track), two_pass_parity(field, n1, 2 * n_track))
            assert _wilson_crossings(field, n1, n_track) == ref
            # the counts read the very eigenphases of the two separate passes
            assert np.array_equal(counted[0], track_eigenphases(field, n1, n_track))
            assert np.array_equal(counted[1], track_eigenphases(field, n1, 2 * n_track))

    def test_one_pass_keeps_the_first_pass_trigger(self):
        field = km_field()
        with pytest.raises(RefinementNeeded) as ref:
            two_pass_parity(field, 16, 4)
        with pytest.raises(RefinementNeeded) as out:
            _wilson_crossings(field, 16, 4)
        assert (str(out.value), out.value.axis) == (str(ref.value), ref.value.axis)

    def test_memo_untouched(self):
        field = km_field()
        field.at(0.1, 0.2)
        assert wilson_z2(field, Grid2(16, 32)) == -1
        assert len(field._cache) == 1

    def test_odd_random_draw(self):
        # the odd draw of the benchmark's random workload: both Z2 routes say -1
        _, field, _ = random_trs_hamiltonian(
            8, 4, 2, seed=730668049, dispersion=1.5, g_min=0.15, max_draws=1
        )
        assert delta(field).value == -1
        assert wilson_z2(field) == -1
