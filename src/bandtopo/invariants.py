"""Topological invariants of projector fields over the 2-torus.

Pipeline invariants:

* ``chern``: parallel transport across the k1 seam, matching matrices,
  winding of their determinant.
* ``delta``: the Z2 (Kramers parity) invariant of time-reversal symmetric
  fields, built from symplectic square roots of the matching matrices at
  the invariant lines k2 = 0 and k2 = pi:

      delta = exp(i (2 lambda_pi - mu(pi)) / 2)  in {+1, -1},

  with lambda = tr(L)/2 for the J-constrained logarithm L (so that
  det exp(iL/2) = exp(i lambda) exactly) and mu the continuous phase of
  det alpha on [0, pi] anchored at mu(0) = 2 lambda_0.

Independent oracles, sharing no code path with the above:

* ``fhs_chern``: lattice field-strength (plaquette) Chern number from
  projector overlaps, gauge invariant by construction.
* ``wilson_z2``: parity of Wannier-center crossings of a reference line
  between the time-reversal invariant lines k2 = 0 and k2 = pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .errors import (
    IntegralityViolation,
    InvalidInput,
    RefinementNeeded,
    SymmetryBroken,
    Unresolved,
)
from .transport import TransportSheet, transport_2d
from .trs import Grid2, ProjectionField, QuaternionicBasis, canonical_j, quaternionic_basis

DEFAULT_GRID = Grid2(32, 32)
WILSON_GRID = Grid2(64, 256)
MAX_REFINE_DEPTH = 8
J_CONSTRAINT_FAIL = 1e-6
FHS_ROUND_TOL = 1e-3
DELTA_ROUND_TOL = 1e-6
_WILSON_BLOCK = 512  # projectors sampled as one stack by wilson_z2


@dataclass(frozen=True)
class InvariantReport:
    """Invariant value plus the residual certificates that back it."""

    kind: str  # "chern" | "delta"
    value: int
    diagnostics: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "delta" and self.value not in (-1, 1):
            raise InvalidInput("delta reports carry a sign in {+1, -1}")


@dataclass(frozen=True)
class MatchingFamily:
    """Loop of matching matrices alpha(k2) in the Def-2.4 orientation.

    alpha(k2) = B^dagger U(-pi, k2)^{-1} U(pi, k2) B on a fixed orthonormal
    basis B of the base image. For symmetric sheets with a quaternionic
    basis the family satisfies conj(alpha(k2)) J alpha(-k2) = J.
    ``unitarity_defect`` is the largest defect audited over the loop.
    """

    alpha: np.ndarray  # (N2, r, r)
    symmetric: bool
    j_residual: float
    unitarity_defect: float
    provenance: str = "matching"

    @property
    def grid_size(self) -> int:
        return self.alpha.shape[0]

    @property
    def dim(self) -> int:
        return self.alpha.shape[1]

    def det_loop(self) -> linalg.PhaseLoop:
        d = np.linalg.det(self.alpha)
        return linalg.PhaseLoop(d / np.abs(d))

    def at_k2_zero(self) -> np.ndarray:
        return self.alpha[self.grid_size // 2]

    def at_k2_pi(self) -> np.ndarray:
        return self.alpha[0]


def occupied_basis(projector, rank) -> np.ndarray:
    """Orthonormal columns spanning the range of a projector."""
    w, v = np.linalg.eigh(np.asarray(projector, dtype=complex))
    if w[-rank] < 0.9 or (projector.shape[0] > rank and w[-rank - 1] > 0.1):
        raise InvalidInput("matrix is not a clean rank-r projector")
    return v[:, projector.shape[0] - rank :]


def matching_family(sheet: TransportSheet, basis) -> MatchingFamily:
    """Matching matrices of a transport sheet on a chosen base-image basis.

    The symmetric flag is set exactly when the sheet is symmetric and the
    basis is quaternionic; the J-constraint residual is then audited and a
    violation above 1e-6 raises SymmetryBroken (a sheet or basis defect).
    """
    quaternionic = isinstance(basis, QuaternionicBasis)
    b = basis.matrix if quaternionic else np.asarray(basis, dtype=complex)
    if linalg.op_norm(b.conj().T @ b - np.eye(b.shape[1])) > 1e-10:
        raise InvalidInput("matching basis must be orthonormal within 1e-10")
    span = linalg.op_norm(b @ b.conj().T - sheet.base_projector)
    if span > 1e-8:
        raise InvalidInput(f"basis does not span the base image: residual {span:.3e}")

    minus, plus = sheet.column_minus_pi(), sheet.column_plus_pi()
    alpha = linalg.dagger(b) @ linalg.dagger(minus) @ plus @ b
    defect = linalg.unitarity_defect(alpha)
    if defect > 1e-9:
        raise InvalidInput(f"matching matrices lost unitarity: defect {defect:.3e}")

    symmetric = bool(sheet.symmetric and quaternionic)
    j_res = 0.0
    if symmetric:
        j = canonical_j(b.shape[1] // 2)
        neg = (-np.arange(alpha.shape[0])) % alpha.shape[0]
        j_res = linalg.op_norm(j - np.conj(alpha) @ j @ alpha[neg])
        if j_res > J_CONSTRAINT_FAIL:
            raise SymmetryBroken(
                f"matching family J-constraint residual {j_res:.3e} > 1e-6"
            )
    return MatchingFamily(alpha, symmetric, j_res, defect)


def _run_ladder(grid, pipeline, max_depth, soft_errors=()):
    # only the message of a failed attempt is kept: the exception's traceback
    # holds that attempt's frames (its sheets and field memos) in a reference
    # cycle that only a full garbage collection would free
    depth = 0
    current = grid
    while True:
        try:
            return pipeline(current), depth
        except RefinementNeeded as err:
            axis = err.axis
            last = str(err)
        except soft_errors as err:
            axis = "k2"
            last = str(err)
        depth += 1
        if depth > max_depth:
            raise Unresolved(f"refinement ladder exhausted at depth {max_depth}: {last}")
        current = current.refined(axis)


def chern(field: ProjectionField, grid: Grid2 = DEFAULT_GRID, max_depth=MAX_REFINE_DEPTH) -> InvariantReport:
    """Chern number via non-symmetric transport and matching-matrix winding."""

    def pipeline(g):
        sheet = transport_2d(field, g, symmetric=False)
        basis = occupied_basis(sheet.base_projector, field.rank)
        fam = matching_family(sheet, basis)
        det = fam.det_loop()
        value = linalg.winding(det)
        return value, sheet, fam, det

    (value, sheet, fam, det), depth = _run_ladder(grid, pipeline, max_depth)
    return InvariantReport(
        "chern",
        int(value),
        {
            "winding_step_margin": det.step_margin,
            "intertwining_residual": sheet.intertwining_residual,
            "matching_unitarity": fam.unitarity_defect,
            "grid_depth": depth,
            "grid": (sheet.grid.n1, sheet.grid.n2),
        },
    )


# --------------------------------------------------------------------------
# the Z2 invariant


def _delta_from_family(fam: MatchingFamily):
    """(value, diagnostics) from a symmetric matching family."""
    n2 = fam.grid_size
    r = fam.dim
    j = canonical_j(r // 2)
    alpha0 = fam.at_k2_zero()
    alpha_pi = fam.at_k2_pi()
    l0 = linalg.unitary_log(alpha0, j_structure=j)
    lpi = linalg.unitary_log(alpha_pi, j_structure=j)
    lambda0 = float(np.trace(l0).real) / 2.0
    lambda_pi = float(np.trace(lpi).real) / 2.0

    dets = np.linalg.det(fam.alpha)
    dets = dets / np.abs(dets)
    reflect = float(np.max(np.abs(dets - dets[(-np.arange(n2)) % n2])))

    # unwrap det alpha from k2 = 0 to pi (upper half, wrapping to the -pi node)
    path = np.concatenate([dets[n2 // 2 :], dets[:1]])
    mu = linalg.unwrap_path(path, anchor=2.0 * lambda0)
    mu_pi = float(mu[-1])

    ratio = (2.0 * lambda_pi - mu_pi) / np.pi
    if abs(ratio - round(ratio)) > 1e-4:
        raise IntegralityViolation(
            f"(2 lambda_pi - mu(pi))/pi = {ratio:.6f} is not near an integer"
        )
    val = np.exp(0.5j * (2.0 * lambda_pi - mu_pi))
    sign = 1 if abs(val - 1.0) <= abs(val + 1.0) else -1
    residual = abs(val - sign)
    if residual > DELTA_ROUND_TOL:
        raise IntegralityViolation(
            f"delta rounding residual {residual:.3e} > {DELTA_ROUND_TOL:.0e}"
        )
    diag = {
        "lambda0": lambda0,
        "lambda_pi": lambda_pi,
        "mu_pi": mu_pi,
        "rounding_residual": float(residual),
        "det_reflectivity": reflect,
        "j_constraint_residual": fam.j_residual,
    }
    return sign, diag


def delta(
    field: ProjectionField,
    grid: Grid2 = DEFAULT_GRID,
    max_depth=MAX_REFINE_DEPTH,
    basis_rotation=None,
    step_target=None,
) -> InvariantReport:
    """Z2 invariant of a time-reversal symmetric field.

    Pipeline: symmetric transport, quaternionic basis at the base point,
    matching family, J-constrained logarithms at the invariant lines, phase
    unwrap of det alpha on [0, pi], then the half-phase combination rounded
    to a sign. ``basis_rotation`` (a symplectic unitary) and
    ``step_target`` expose the gauge and step-policy freedom that the
    invariant must not depend on.
    """
    if field.trs is None:
        raise InvalidInput("delta needs a TRS-certified field")
    if field.rank % 2 != 0:
        raise InvalidInput("delta needs even rank")

    kwargs = {}
    if step_target is not None:
        kwargs["step_target"] = step_target

    def pipeline(g):
        sheet = transport_2d(field, g, symmetric=True, **kwargs)
        occ = occupied_basis(sheet.base_projector, field.rank)
        qbasis = quaternionic_basis(occ, field.trs)
        if basis_rotation is not None:
            # a symplectic rotation keeps the Kramers pairing intact
            rotated = qbasis.matrix @ np.asarray(basis_rotation, dtype=complex)
            jrep = linalg.op_norm(
                rotated.conj().T @ field.trs.apply(rotated) - canonical_j(qbasis.n)
            )
            if jrep > 1e-8:
                raise InvalidInput("basis rotation is not symplectic")
            qbasis = QuaternionicBasis(
                rotated,
                qbasis.n,
                gram_residual=linalg.op_norm(
                    rotated.conj().T @ rotated - np.eye(field.rank)
                ),
                span_residual=qbasis.span_residual,
                j_representation_residual=jrep,
            )
        fam = matching_family(sheet, qbasis)
        sign, diag = _delta_from_family(fam)
        det = fam.det_loop()
        diag.update(
            {
                "winding_step_margin": det.step_margin,
                "intertwining_residual": sheet.intertwining_residual,
                "sheet_symmetry_residual": sheet.symmetry_residual,
                "grid": (g.n1, g.n2),
            }
        )
        return sign, diag

    (sign, diag), depth = _run_ladder(
        grid, pipeline, max_depth, soft_errors=(IntegralityViolation,)
    )
    diag["grid_depth"] = depth
    return InvariantReport("delta", sign, diag)


# --------------------------------------------------------------------------
# lattice field-strength oracle


def _grid_frames(field: ProjectionField, grid: Grid2) -> np.ndarray:
    frames = np.empty((grid.n1, grid.n2, field.dim, field.rank), dtype=complex)
    for i, k1 in enumerate(grid.nodes1):
        _, v = np.linalg.eigh(field.sample_row(k1, grid.nodes2))
        frames[i] = v[..., field.dim - field.rank :]
    return frames


def fhs_chern(field: ProjectionField, grid: Grid2 = DEFAULT_GRID, max_depth=MAX_REFINE_DEPTH) -> int:
    """Plaquette field-strength Chern number (independent lattice oracle).

    U(1) link variables are normalized determinants of frame overlaps;
    the integer is the plaquette phase sum over 2*pi. The computation is
    gauge invariant since only projector ranges enter. Refinement triggers:
    near-singular links, a plaquette flux close to +-pi (admissibility),
    or a rounding residual above 1e-3.
    """

    def pipeline(g):
        frames = _grid_frames(field, g)
        mx = np.einsum("ijab,ijac->ijbc", frames.conj(), np.roll(frames, -1, axis=0))
        my = np.einsum("ijab,ijac->ijbc", frames.conj(), np.roll(frames, -1, axis=1))
        dx = np.linalg.det(mx)
        dy = np.linalg.det(my)
        if min(np.abs(dx).min(), np.abs(dy).min()) < 1e-6:
            raise RefinementNeeded("singular link overlap", axis=None)
        ux = dx / np.abs(dx)
        uy = dy / np.abs(dy)
        flux = np.angle(ux * np.roll(uy, -1, axis=0) * np.conj(np.roll(ux, -1, axis=1)) * np.conj(uy))
        if np.max(np.abs(flux)) > 0.95 * np.pi:
            raise RefinementNeeded("plaquette flux too close to +-pi", axis=None)
        total = flux.sum() / (2.0 * np.pi)
        value = int(np.round(total))
        if abs(total - value) > FHS_ROUND_TOL:
            raise RefinementNeeded(
                f"field-strength sum {total:.6f} not within 1e-3 of an integer",
                axis=None,
            )
        return value

    value, _ = _run_ladder(grid, pipeline, max_depth)
    return value


# --------------------------------------------------------------------------
# Wilson-loop (Wannier-center flow) oracle


def _wilson_eigenphases(field, k2_lines, n1):
    """Sorted eigenphases of the k1 Wilson loop on each line k2, as a
    (lines, rank) array. About _WILSON_BLOCK projectors are sampled and
    reduced as one stack at a time, through ``field.sample_points``."""
    nodes = linalg.grid_nodes(n1)
    r = field.rank
    per_block = max(1, _WILSON_BLOCK // n1)
    phases = np.empty((len(k2_lines), r))
    for start in range(0, len(k2_lines), per_block):
        k2 = np.asarray(k2_lines[start : start + per_block], dtype=float)
        _, v = np.linalg.eigh(field.sample_points(nodes, k2[:, None]))
        frames = v[..., field.dim - r :]
        links = linalg.polar_unitary(linalg.dagger(frames) @ np.roll(frames, -1, axis=1))
        w = np.broadcast_to(np.eye(r, dtype=complex), (k2.size, r, r))
        for i in range(n1):
            w = w @ links[:, i]
        vals = np.linalg.eigvals(w)
        phases[start : start + k2.size] = np.sort(np.angle(vals / np.abs(vals)), axis=-1)
    return phases


def _reference_line(phases_start, phases_end):
    """Midpoint of the largest circular gap of the combined endpoint phases."""
    combined = np.sort(np.mod(np.concatenate([phases_start, phases_end]), 2.0 * np.pi))
    gaps = np.diff(np.append(combined, combined[0] + 2.0 * np.pi))
    best = int(np.argmax(gaps))
    return float(np.mod(combined[best] + 0.5 * gaps[best], 2.0 * np.pi))


def _match_and_count(prev, nxt, ref, tol):
    """Signed crossings of the reference line during one tracking step."""
    r = prev.size
    prev_rel = np.sort(np.mod(prev - ref, 2.0 * np.pi))
    nxt_rel = np.sort(np.mod(nxt - ref, 2.0 * np.pi))
    best, best_cost = None, np.inf
    for off in range(r):
        cand = np.roll(nxt_rel, -off)
        disp = np.mod(cand - prev_rel + np.pi, 2.0 * np.pi) - np.pi
        cost = np.abs(disp).sum()
        if cost < best_cost:
            best_cost, best = cost, disp
    if np.max(np.abs(best)) > tol:
        raise RefinementNeeded(
            f"eigenphase moved {np.max(np.abs(best)):.3f} > {tol:.3f} in one step",
            axis="k2",
        )
    lifted = prev_rel + best
    return int(np.sum(np.floor(lifted / (2.0 * np.pi))))


def _crossing_count(phases):
    """Signed crossings of the reference line along a track of eigenphase rows."""
    ref = _reference_line(phases[0], phases[-1])
    endpoint_margin = min(
        np.min(_circ_dist(phases[0], ref)), np.min(_circ_dist(phases[-1], ref))
    )
    if endpoint_margin < 1e-4:
        raise RefinementNeeded("reference line touches an endpoint phase", axis="k2")
    crossings = 0
    for step in range(len(phases) - 1):
        crossings += _match_and_count(phases[step], phases[step + 1], ref, np.pi / 2)
    return crossings


def _wilson_crossings(field, n1, n_track):
    """(crossings, audit): the counts over n_track and 2 n_track steps of
    [0, pi]. Each of the 2 n_track + 1 lines is computed once; the even
    lines (k2 = 2 idx pi / 2n == idx pi / n bit for bit) are counted before
    the odd ones are computed, so a failing count costs no more lines."""
    track = np.arange(2 * n_track + 1) * np.pi / (2 * n_track)
    phases = np.empty((track.size, field.rank))
    phases[::2] = _wilson_eigenphases(field, track[::2], n1)
    crossings = _crossing_count(phases[::2])
    phases[1::2] = _wilson_eigenphases(field, track[1::2], n1)
    return crossings, _crossing_count(phases)


def _circ_dist(angles, ref):
    d = np.mod(np.asarray(angles) - ref + np.pi, 2.0 * np.pi) - np.pi
    return np.abs(d)


def wilson_z2(field: ProjectionField, grid: Grid2 = WILSON_GRID, max_depth=MAX_REFINE_DEPTH) -> int:
    """Z2 oracle: parity of Wannier-center crossings over k2 in [0, pi].

    Eigenphases of the k1 Wilson loop are tracked between the two
    time-reversal invariant lines; the result is the parity of signed
    crossings of a reference line chosen in the largest endpoint gap. The
    parity is audited by a recount at doubled k2 resolution, on the lines
    of the first count plus the lines between them.
    """
    if field.trs is None:
        raise InvalidInput("wilson_z2 needs a TRS-certified field")
    if field.rank % 2 != 0:
        raise InvalidInput("wilson_z2 needs even rank")

    def pipeline(g):
        crossings, audit = _wilson_crossings(field, g.n1, g.n2 // 2)
        if (crossings - audit) % 2 != 0:
            raise RefinementNeeded(
                "crossing parity changed under doubled tracking resolution",
                axis="k2",
            )
        return -1 if crossings % 2 else 1

    value, _ = _run_ladder(grid, pipeline, max_depth)
    return value
