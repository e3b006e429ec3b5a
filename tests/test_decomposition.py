import dataclasses

import numpy as np
import pytest

from bandtopo import decomposition, linalg
from bandtopo.decomposition import (
    FrameField,
    complement_field,
    load_frame,
    pseudo_periodic_frame,
    save_frame,
    split,
    symmetric_equivalence,
    symmetric_frame,
    verify_homotopy,
)
from bandtopo.errors import InvalidInput, ParityObstruction, Unresolved
from bandtopo.invariants import chern, delta
from bandtopo.models import (
    gauge_transform,
    haldane,
    kane_mele,
    random_gauge_map,
    random_trs_hamiltonian,
    spectral_projector,
)
from bandtopo.trs import (
    Grid2,
    ProjectionField,
    TRSStructure,
    canonical_j,
    constant_field,
    direct_sum_fields,
)

from helpers import rng


def constant_trs_field(n_pairs, dim_half, seed=0):
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


def km_field(lambda_v):
    model = kane_mele(1.0, 0.06, 0.05, lambda_v)
    field, _ = spectral_projector(model, 2)
    return field


def per_node_split_residuals(field, cert):
    """Per-node reference for split's row-batched audits."""
    frames, beta = cert.frames, cert.gluing.beta
    n1, n2 = frames.shape[0] - 1, frames.shape[1]
    n = frames.shape[3] // 2
    j = canonical_j(n)
    t_nodes = np.append(linalg.grid_nodes(n1), np.pi)
    k2_nodes = linalg.grid_nodes(n2)
    pm = np.empty((n1 + 1, n2, field.dim, field.dim), dtype=complex)
    pp = np.empty_like(pm)
    for i in range(n1 + 1):
        for jj in range(n2):
            fm, fp = frames[i, jj][:, :n], frames[i, jj][:, n:]
            pm[i, jj] = fm @ fm.conj().T
            pp[i, jj] = fp @ fp.conj().T
    ref = dict.fromkeys(("orthogonality", "sum", "trs_exchange", "idempotency", "symmetry"), 0.0)
    for i in range(n1 + 1):
        for jj in range(n2):
            mirror = (n1 - i, (-jj) % n2)
            for key, val in (
                ("orthogonality", pm[i, jj] @ pp[i, jj]),
                ("sum", pm[i, jj] + pp[i, jj] - field.at(t_nodes[i], k2_nodes[jj])),
                ("trs_exchange", field.trs.conjugate(pp[i, jj]) - pm[mirror]),
                ("idempotency", pm[i, jj] @ pm[i, jj] - pm[i, jj]),
                ("symmetry", j @ beta[i, jj] - np.conj(beta[mirror]) @ j),
            ):
                ref[key] = max(ref[key], linalg.op_norm(val))
    return ref


class TestSplit:
    def test_constant_trs_projector(self):
        f = constant_trs_field(1, 2)
        cert = split(f, 0, Grid2(8, 8))
        assert cert.chern_minus == 0 and cert.chern_plus == 0
        assert max(
            v for k, v in cert.residuals.items() if k != "grid_depth"
        ) <= 1e-12

    def test_kane_mele_topological_h1(self):
        cert = split(km_field(0.1), 1, Grid2(16, 16))
        assert cert.chern_minus == 1 and cert.chern_plus == -1
        assert cert.delta == -1
        for key in ("orthogonality", "sum", "trs_exchange", "idempotency"):
            assert cert.residuals[key] <= 1e-7
        assert cert.gluing.seam_residual <= 1e-7
        assert cert.gluing.symmetry_residual <= 1e-7

    def test_residuals_match_per_node_loop(self):
        # the row-batched audits reproduce the per-node reference exactly
        f = km_field(0.1)
        cert = split(f, 1, Grid2(16, 16))
        ref = per_node_split_residuals(f, cert)
        assert cert.gluing.symmetry_residual == ref.pop("symmetry")
        assert {key: cert.residuals[key] for key in ref} == ref

    def test_kane_mele_topological_h0_obstructed(self):
        with pytest.raises(ParityObstruction):
            split(km_field(0.1), 0, Grid2(16, 16))

    def test_kane_mele_trivial_h0(self):
        cert = split(km_field(0.5), 0, Grid2(16, 16))
        assert cert.chern_minus == 0 and cert.chern_plus == 0
        assert cert.delta == 1

    def test_kane_mele_trivial_h1_obstructed(self):
        with pytest.raises(ParityObstruction):
            split(km_field(0.5), 1, Grid2(16, 16))

    def test_kane_mele_near_transition_h1(self):
        # the boundary loop steps 0.84 in k2 at 32x32; the gluing homotopy
        # must refine rather than return factors with swapped Chern numbers
        cert = split(km_field(0.05), 1, Grid2(32, 32))
        assert cert.chern_minus == 1 and cert.chern_plus == -1
        assert max(v for k, v in cert.residuals.items() if k != "grid_depth") <= 1e-7

    def test_factor_fields_are_valid(self):
        cert = split(km_field(0.1), 1, Grid2(16, 16))
        from bandtopo.trs import validate_field

        rep = validate_field(cert.minus, Grid2(8, 8))
        assert rep.passed


    def test_factors_sum_to_field_on_split_grid(self):
        # the factor fields are formed from the frames on each access; at
        # every node of the split's grid they add up to P
        f = km_field(0.1)
        cert = split(f, 1, Grid2(16, 16))
        n1, n2 = cert.frames.shape[0] - 1, cert.frames.shape[1]
        total = cert.minus.samples + cert.plus.samples
        assert linalg.op_norm(total - f.sample_grid(Grid2(n1, n2))) <= 1e-8

class TestPseudoPeriodicFrame:
    def test_constant_projector_periodic_frame(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        f = constant_field(p)
        frame = pseudo_periodic_frame(f, Grid2(8, 8))
        assert frame.h == 0
        assert frame.residuals["boundary_law"] <= 1e-12

    def test_haldane_boundary_law(self):
        model = haldane(1.0, 0.1, np.pi / 2, 0.0)
        field, _ = spectral_projector(model, 1)
        c = chern(field, Grid2(16, 16)).value
        frame = pseudo_periodic_frame(field, Grid2(16, 16))
        assert frame.h == c
        assert frame.residuals["boundary_law"] <= 1e-8
        assert frame.residuals["gram"] <= 1e-10
        assert frame.residuals["reconstruction"] <= 1e-8

    def test_conjugate_haldane_pair_gives_periodic_frame(self):
        up = haldane(1.0, 0.1, np.pi / 2, 0.0)
        down = haldane(1.0, 0.1, -np.pi / 2, 0.0)
        fu, _ = spectral_projector(up, 1)
        fd, _ = spectral_projector(down, 1)
        assert chern(fu, Grid2(16, 16)).value == -chern(fd, Grid2(16, 16)).value
        total = direct_sum_fields(fu, fd)
        frame = pseudo_periodic_frame(total, Grid2(16, 16))
        assert frame.h == 0
        assert not frame.pseudo_periodic_columns()


class TestSymmetricFrame:
    def test_constant_trs_projector(self):
        f = constant_trs_field(1, 2)
        frame = symmetric_frame(f, Grid2(8, 8))
        assert frame.symmetric
        assert not frame.pseudo_periodic_columns()
        assert frame.residuals["kramers"] <= 1e-10

    def test_kane_mele_trivial_fully_periodic(self):
        frame = symmetric_frame(km_field(0.5), Grid2(16, 16))
        assert not frame.pseudo_periodic_columns()
        assert frame.residuals["kramers"] <= 1e-8
        assert frame.residuals["reconstruction"] <= 1e-8

    def test_kane_mele_topological_single_kramers_pair(self):
        frame = symmetric_frame(km_field(0.1), Grid2(16, 16))
        cols = frame.pseudo_periodic_columns()
        assert len(cols) == 2
        n = frame.rank // 2
        assert cols == [0, n]
        assert frame.boundary_exponents[0] == 1
        assert frame.boundary_exponents[n] == -1
        assert frame.residuals["boundary_law"] <= 1e-8

    def test_frames_come_from_split(self):
        f = km_field(0.1)
        frame = symmetric_frame(f, Grid2(16, 16))
        cert = split(f, 1, Grid2(16, 16))
        n = frame.rank // 2
        assert np.array_equal(frame.vectors[..., :n], cert.frames[..., :n])
        assert np.array_equal(frame.vectors[..., n:], -cert.frames[..., n:])
        assert list(frame.boundary_exponents) == [1, -1]

    def test_non_orthonormal_frame_refused(self, monkeypatch):
        f = km_field(0.1)
        cert = split(f, 1, Grid2(16, 16))
        skewed = dataclasses.replace(cert, frames=cert.frames * (1.0 + 1e-6))
        monkeypatch.setattr(decomposition, "_split", lambda *args: skewed)
        with pytest.raises(InvalidInput, match="gram"):
            symmetric_frame(f, Grid2(16, 16))


@pytest.mark.slow
class TestSymmetricEquivalence:
    def test_same_field(self):
        f = km_field(0.1)
        res = symmetric_equivalence(f, f, Grid2(16, 16))
        assert not res.obstructed
        assert res.residuals["intertwining"] <= 1e-9

    def test_gauge_pair(self):
        f = km_field(0.1)
        w = random_gauge_map(4, seed=7, symmetric=True, trs=f.trs)
        fg = gauge_transform(f, w, symmetric=True)
        res = symmetric_equivalence(f, fg, Grid2(16, 16))
        assert not res.obstructed
        assert max(res.residuals.values()) <= 1e-7

    def test_km_vs_seed_searched_random(self):
        # seed-searched nontrivial draw: D = 4, rank 2, M = 2, strong
        # dispersion, sharing the Kane-Mele time-reversal operator
        from bandtopo.models import KM_J

        _, rf, _ = random_trs_hamiltonian(4, 2, 2, seed=5, j=KM_J, dispersion=0.8)
        assert delta(rf, Grid2(16, 16)).value == -1
        res = symmetric_equivalence(km_field(0.1), rf, Grid2(16, 16))
        assert not res.obstructed
        assert max(res.residuals.values()) <= 1e-7

    def test_different_j_rejected(self):
        _, rf, _ = random_trs_hamiltonian(4, 2, 2, seed=5, dispersion=0.8)
        with pytest.raises(InvalidInput):
            symmetric_equivalence(km_field(0.1), rf, Grid2(16, 16))

    def test_mixed_deltas_obstructed(self):
        res = symmetric_equivalence(km_field(0.1), km_field(0.5), Grid2(16, 16))
        assert res.obstructed
        assert res.unitary is None
        assert (res.delta0, res.delta1) == (-1, 1)

    def test_one_ladder_one_sheet_per_source_and_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("equivalence must not run a nested ladder")

        monkeypatch.setattr(decomposition, "delta", refuse)
        monkeypatch.setattr(decomposition, "symmetric_frame", refuse)
        built, keep = [], []
        transport_2d = decomposition.transport_2d

        def counted(field, g, symmetric=False, **kwargs):
            if symmetric:
                keep.append(field)  # keeps each id unique while counting
                built.append((id(field), g.n1, g.n2))
            return transport_2d(field, g, symmetric=symmetric, **kwargs)

        monkeypatch.setattr(decomposition, "transport_2d", counted)
        f = km_field(0.1)
        w = random_gauge_map(4, seed=7, symmetric=True, trs=f.trs)
        res = symmetric_equivalence(f, gauge_transform(f, w, symmetric=True), Grid2(16, 16))
        assert not res.obstructed
        assert max(res.residuals.values()) <= 1e-7
        assert built and len(set(built)) == len(built)

    def test_ladder_depth_bounds_the_joint_ladder(self):
        from bandtopo.models import KM_J

        # this pair certifies only after refining 16x16 to 64x128
        _, rf, _ = random_trs_hamiltonian(4, 2, 2, seed=5, j=KM_J, dispersion=0.8)
        with pytest.raises(Unresolved, match="depth 0"):
            symmetric_equivalence(km_field(0.1), rf, Grid2(16, 16), max_depth=0)

    def test_non_orthonormal_frames_refused(self, monkeypatch):
        split_at_grid = decomposition._split_at_grid

        def skewed(*args):
            cert = split_at_grid(*args)
            return dataclasses.replace(cert, frames=cert.frames * (1.0 + 1e-6))

        monkeypatch.setattr(decomposition, "_split_at_grid", skewed)
        f = km_field(0.1)
        with pytest.raises(InvalidInput, match="gram"):
            symmetric_equivalence(f, f, Grid2(16, 16))


class TestVerifyHomotopy:
    def test_constant_path(self):
        f = constant_trs_field(1, 2)
        report = verify_homotopy([f, f, f], Grid2(8, 8))
        assert report.passed
        assert report.deltas == [1, 1, 1]

    def test_kane_mele_parameter_path(self):
        path = [km_field(v) for v in (0.10, 0.14, 0.18)]
        report = verify_homotopy(path, Grid2(8, 8))
        assert report.passed
        assert set(report.deltas) == {-1}

    def test_defective_path_pinpointed(self):
        # a projector flagged TRS that is not actually symmetric
        r = rng(33)
        from helpers import random_projector

        t = TRSStructure(canonical_j(2))
        p = random_projector(r, 4, 2)
        bad = ProjectionField(4, 2, lambda k1, k2: p, trs=t)
        report = verify_homotopy([km_field(0.1), bad], Grid2(8, 8))
        assert not report.passed
        kinds = {f[0] for f in report.failures}
        assert "snapshot" in kinds or "step" in kinds

    def test_unexpected_error_propagates(self, monkeypatch):
        from bandtopo import decomposition

        def broken(*args, **kwargs):
            raise RuntimeError("bug in the delta pipeline")

        monkeypatch.setattr(decomposition, "delta", broken)
        f = constant_trs_field(1, 2)
        with pytest.raises(RuntimeError, match="bug in the delta pipeline"):
            verify_homotopy([f, f], Grid2(8, 8))


class TestFrameExport:
    def test_roundtrip(self, tmp_path):
        model = haldane(1.0, 0.1, np.pi / 2, 0.0)
        field, _ = spectral_projector(model, 1)
        frame = pseudo_periodic_frame(field, Grid2(8, 8))
        path = tmp_path / "frame.json"
        save_frame(frame, path)
        back = load_frame(path)
        assert back.h == frame.h
        assert np.array_equal(back.boundary_exponents, frame.boundary_exponents)
        assert np.array_equal(back.vectors, frame.vectors)

    def test_bytes_stable(self, tmp_path):
        f = constant_trs_field(1, 2)
        frame = symmetric_frame(f, Grid2(8, 8))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_frame(frame, a)
        save_frame(frame, b)
        assert a.read_bytes() == b.read_bytes()
