"""Structural algorithms on time-reversal symmetric projector fields.

* ``split``: decompose P = P- (+) P+ with prescribed Chern number h on the
  minus factor and T P+(k) T^{-1} = P-(-k); possible exactly when
  (-1)^h = delta(P), the incompatible case raising ParityObstruction,
  which is the topological obstruction speaking rather than a numerical
  failure.
* ``pseudo_periodic_frame``: spanning orthonormal frame periodic in k2 and
  periodic in t except for one vector carrying the phase law
  exp(i Ch(P) k2) across the t = +-pi seam.
* ``symmetric_frame``: Kramers-paired frame, fully periodic when
  delta = +1 and with exactly one pseudo-periodic Kramers pair (conjugate
  laws exp(+-i k2)) when delta = -1.
* ``symmetric_equivalence``: periodic, T-equivariant unitary family
  conjugating one field into another, existing iff the deltas agree.
* ``verify_homotopy``: certificate checker for user-supplied paths.

Gluing matrices are kept in the row convention v_j = sum_a beta_{j,a} u_a,
so frames assemble as F = Psi beta^T; the mid-construction Kramers pairing
is v_{n+j}(t, k2) = +T v_j(-t, -k2) and the final symmetric frames flip the
sign of the second half to present the (-T) pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import json
import numpy as np

from . import linalg
from .errors import (
    BandTopoError,
    IntegralityViolation,
    InvalidInput,
    ParityObstruction,
)
from .invariants import (
    DEFAULT_GRID,
    MAX_REFINE_DEPTH,
    _delta_from_family,
    _run_ladder,
    chern,
    delta,
    matching_family,
    occupied_basis,
)
from .transport import transport_2d
from .trs import (
    Grid2,
    ProjectionField,
    SampledProjectionField,
    canonical_j,
    quaternionic_basis,
    validate_field,
)

CERT_TOL = 1e-7
FRAME_TOL = 1e-8


# --------------------------------------------------------------------------
# frame container


@dataclass
class FrameField:
    """Sampled orthonormal spanning frame with explicit boundary phase laws.

    ``vectors[i, j]`` is the (D, r) frame at t_i = -pi + 2*pi*i/N1 (both
    endpoints stored) and the periodic k2 node j. Column c obeys
    F(pi, k2)[:, c] = exp(i e_c k2) F(-pi, k2)[:, c] with integer exponents
    e_c; all exponents vanish except e_0 = h (and e_n = -h on symmetric
    frames).
    """

    vectors: np.ndarray
    boundary_exponents: np.ndarray
    symmetric: bool
    residuals: dict
    provenance: str = "frame"

    @property
    def h(self) -> int:
        return int(self.boundary_exponents[0])

    @property
    def rank(self) -> int:
        return self.vectors.shape[3]

    @property
    def dim(self) -> int:
        return self.vectors.shape[2]

    @property
    def grid(self) -> Grid2:
        return Grid2(self.vectors.shape[0] - 1, self.vectors.shape[1])

    def pseudo_periodic_columns(self):
        return [c for c, e in enumerate(self.boundary_exponents) if e != 0]


def _audit_frame(vectors, field, exponents, trs=None):
    """Gram / reconstruction / boundary-law / Kramers residuals of a frame.

    Raises InvalidInput when gram or 10x reconstruction exceeds 1e-8, or the
    boundary law or Kramers pairing exceeds FRAME_TOL.
    """
    n1p1, n2, dim, r = vectors.shape
    n1 = n1p1 - 1
    t_nodes = np.append(linalg.grid_nodes(n1), np.pi)
    k2_nodes = linalg.grid_nodes(n2)
    rows = range(n1p1)
    phase = np.exp(1j * np.asarray(exponents) * k2_nodes[:, None])
    out = {
        "gram": max(linalg.unitarity_defect(vectors[i]) for i in rows),
        "reconstruction": max(
            linalg.op_norm(
                vectors[i] @ linalg.dagger(vectors[i])
                - field.sample_row(t_nodes[i], k2_nodes)
            )
            for i in rows
        ),
        "boundary_law": float(np.max(np.abs(vectors[n1] - vectors[0] * phase[:, None, :]))),
    }
    if trs is not None:
        n = r // 2
        neg = (-np.arange(n2)) % n2
        out["kramers"] = max(
            float(
                np.abs(vectors[i][..., n:] + trs.apply(vectors[n1 - i][neg][..., :n])).max()
            )
            for i in rows
        )
    if (
        max(out["gram"], 10.0 * out["reconstruction"]) > 1e-8
        or out["boundary_law"] > FRAME_TOL
        or out.get("kramers", 0.0) > FRAME_TOL
    ):
        raise InvalidInput(f"frame residuals out of tolerance: {out}")
    return out


# --------------------------------------------------------------------------
# gluing matrices


@dataclass
class GluingMatrixPath:
    """beta(t_i, k2_j) in U(2n) solving the symmetric gluing problem.

    Invariants audited at construction: the time-reversal relation
    J beta(t, k2) = conj(beta(-t, -k2)) J and the seam law
    beta(pi, k2) = Lambda(k2) beta(-pi, k2) alpha(k2), both within 1e-7.
    """

    beta: np.ndarray  # (N1+1, N2, 2n, 2n)
    h: int
    symmetry_residual: float
    seam_residual: float

    def __post_init__(self):
        if max(self.symmetry_residual, self.seam_residual) > CERT_TOL:
            raise InvalidInput(
                f"gluing path residuals exceed {CERT_TOL:.0e}: "
                f"symmetry {self.symmetry_residual:.3e}, seam {self.seam_residual:.3e}"
            )


def _lambda_diag(h, n, k2):
    """Diagonal of Lambda(k2) = diag(e^{i h k2}, 1.., e^{-i h k2}, 1..).

    ``k2`` may be an array of nodes; the diagonals then stack along it.
    """
    k2 = np.asarray(k2)
    lam = np.ones(k2.shape + (2 * n,), dtype=complex)
    lam[..., 0] = np.exp(1j * h * k2)
    lam[..., n] = np.exp(-1j * h * k2)
    return lam


def _diag_stack(diagonals):
    """(N, m, m) diagonal matrices from (N, m) diagonals, as np.diag builds them."""
    n, m = diagonals.shape
    out = np.zeros((n, m, m), dtype=complex)
    out[:, np.arange(m), np.arange(m)] = diagonals
    return out


def _build_boundary_gluing(alpha4, h, n):
    """beta(pi, .) on the k2 grid from J-constrained logs of alpha(0), alpha(pi).

    Even h: beta(pi, k2) = exp(i[(pi - k2) L + k2 R]/(2 pi)) on [0, pi].
    Odd h: the same with the diagonal twist Y(k2)^{-1} in the middle,
    Y(k2) = diag(e^{i k2/2}, 1..1, e^{i k2/2}, 1..1), so that
    beta(pi, pi) = Y^{-1} exp(iR/2) satisfies the twisted condition
    J (Y beta)^T J^{-1} (Y beta) = alpha(pi). Negative k2 comes from the
    mirror beta(pi, k2) = Lambda(k2) J conj(beta(pi, -k2)) J^{-1} alpha(k2).
    """
    n2 = alpha4.shape[0]
    j = canonical_j(n)
    nodes = linalg.grid_nodes(n2)
    l_log = linalg.unitary_log(alpha4[n2 // 2], j_structure=j)
    r_log = linalg.unitary_log(alpha4[0], j_structure=j)

    def upper(k2):
        a = linalg.expm_i_hermitian(((np.pi - k2) * l_log + k2 * r_log) / (2.0 * np.pi))
        if h % 2 == 0:
            return a
        la = linalg.expm_i_hermitian((np.pi - k2) * l_log / (2.0 * np.pi))
        rb = linalg.expm_i_hermitian(k2 * r_log / (2.0 * np.pi))
        y_inv = np.ones(2 * n, dtype=complex)
        y_inv[0] = np.exp(-0.5j * k2)
        y_inv[n] = np.exp(-0.5j * k2)
        return la @ np.diag(y_inv) @ rb

    beta_pi = np.empty_like(alpha4)
    beta_pi[0] = upper(np.pi)
    for idx in range(n2 // 2, n2):
        beta_pi[idx] = upper(nodes[idx])
    for idx in range(1, n2 // 2):
        mirror = np.conj(beta_pi[n2 - idx])
        beta_pi[idx] = (
            np.diag(_lambda_diag(h, n, nodes[idx])) @ j @ mirror @ j.conj().T @ alpha4[idx]
        )
    return beta_pi


def split(
    field: ProjectionField,
    h: int,
    grid: Grid2 = DEFAULT_GRID,
    max_depth=MAX_REFINE_DEPTH,
):
    """Split a TRS field into P- (+) P+ with Ch(P-) = h.

    Requires (-1)^h = delta(P); the incompatible parity raises
    ParityObstruction. The construction follows the gluing-matrix
    algorithm: J-constrained logs at the invariant lines define
    beta(pi, .), its even determinant winding fixes the diagonal twist
    beta(0, .), a det-winding homotopy connects the two across t in
    [0, pi], and the t < 0 half is the J-mirror. Rotating the transported
    quaternionic frame by beta and splitting its columns n | n yields the
    factors, which are returned as interpolating sampled fields inside a
    residual certificate.
    """
    if field.trs is None:
        raise InvalidInput("split needs a TRS-certified field")
    if field.rank % 2 != 0:
        raise InvalidInput("split needs even rank")
    return _split(field, h, grid, max_depth)


def _split(field, h, grid, max_depth):
    """split's refinement ladder; ``h=None`` takes h in {0, 1} from delta."""
    result, depth = _run_ladder(
        grid,
        lambda g: _split_at_grid(field, h, _symmetric_family(field, g)),
        max_depth,
        soft_errors=(IntegralityViolation,),
    )
    result.residuals["grid_depth"] = depth
    return result


def _symmetric_family(field, g):
    """Symmetric sheet, quaternionic basis, matching family and delta at g."""
    sheet = transport_2d(field, g, symmetric=True)
    occ = occupied_basis(sheet.base_projector, field.rank)
    qbasis = quaternionic_basis(occ, field.trs)
    fam = matching_family(sheet, qbasis)
    sign, _ = _delta_from_family(fam)
    return sheet, qbasis, fam, sign


def _split_at_grid(field, h, family):
    """Glue the split on the grid of ``family``, the field's symmetric head."""
    sheet, qbasis, fam, sign = family
    trs = field.trs
    g = sheet.grid
    n1, n2 = g.n1, g.n2
    n = field.rank // 2
    j = canonical_j(n)
    if h is None:
        h = 0 if sign == 1 else 1
    elif (-1) ** (h % 2) != sign:
        raise ParityObstruction(sign, h)

    # the gluing equations live in the opposite seam orientation:
    # alpha4(k2) = conj(alpha_def(k2))
    alpha4 = np.conj(fam.alpha)
    beta_pi = _build_boundary_gluing(alpha4, h, n)

    w_beta = linalg.winding(linalg.UnitaryLoop(beta_pi).det_loop())
    if w_beta % 2 != 0:
        raise InvalidInput(f"boundary gluing winding {w_beta} is odd (internal)")
    r_twist = w_beta // 2

    nodes2 = linalg.grid_nodes(n2)
    twist = np.ones((n2, 2 * n), dtype=complex)
    twist[:, 0] = twist[:, n] = np.exp(1j * r_twist * nodes2)
    beta_0 = _diag_stack(twist)

    hom = linalg.connect_loops(
        linalg.UnitaryLoop(beta_0), linalg.UnitaryLoop(beta_pi), n_steps=n1 // 2
    )

    # every assembly and audit below goes one t-row of n2 matrices at a
    # time, so it allocates no temporary the size of the grid
    rows = range(n1 + 1)
    neg = (-np.arange(n2)) % n2
    beta = np.empty((n1 + 1, n2, 2 * n, 2 * n), dtype=complex)
    mid = n1 // 2
    beta[mid:] = hom.snapshots
    for i in range(mid):
        beta[i] = j.conj().T @ np.conj(beta[n1 - i][neg]) @ j

    sym_res = max(linalg.op_norm(j @ beta[i] - np.conj(beta[n1 - i][neg]) @ j) for i in rows)
    lam = _diag_stack(_lambda_diag(h, n, nodes2))
    seam_res = linalg.op_norm(beta[n1] - lam @ beta[0] @ alpha4)
    gluing = GluingMatrixPath(beta, h, sym_res, seam_res)

    # frames: F = Psi beta^T with Psi the transported quaternionic basis
    frames = np.empty((n1 + 1, n2, field.dim, 2 * n), dtype=complex)
    p_minus = np.empty((n1 + 1, n2, field.dim, field.dim), dtype=complex)
    p_plus = np.empty_like(p_minus)
    for i in rows:
        frames[i] = sheet.u[i] @ qbasis.matrix @ np.swapaxes(beta[i], -1, -2)
        fm, fp = frames[i][..., :n], frames[i][..., n:]
        p_minus[i] = fm @ linalg.dagger(fm)
        p_plus[i] = fp @ linalg.dagger(fp)

    # factor-level residuals
    t_nodes = np.append(g.nodes1, np.pi)
    res = {
        "orthogonality": max(linalg.op_norm(p_minus[i] @ p_plus[i]) for i in rows),
        "sum": max(
            linalg.op_norm(p_minus[i] + p_plus[i] - field.sample_row(t_nodes[i], nodes2))
            for i in rows
        ),
        "trs_exchange": max(
            linalg.op_norm(trs.conjugate(p_plus[i]) - p_minus[n1 - i][neg]) for i in rows
        ),
        "idempotency": max(
            linalg.op_norm(p_minus[i] @ p_minus[i] - p_minus[i]) for i in rows
        ),
        "t_closure": float(np.max(np.abs(p_minus[n1] - p_minus[0]))),
    }
    worst = max(res["orthogonality"], res["sum"], res["trs_exchange"], res["idempotency"])
    if worst > CERT_TOL:
        raise InvalidInput(f"split certificate residual {worst:.3e} > {CERT_TOL:.0e}")

    minus = SampledProjectionField(
        p_minus[:n1], n, provenance=f"minus factor of ({field.provenance})"
    )
    plus = SampledProjectionField(
        p_plus[:n1], n, provenance=f"plus factor of ({field.provenance})"
    )
    ch_minus = chern(minus, g).value
    ch_plus = chern(plus, g).value
    if ch_minus != h or ch_plus != -h:
        raise InvalidInput(
            f"factor Chern numbers ({ch_minus}, {ch_plus}) disagree with h = {h}"
        )
    return SplitCertificate(
        chern_minus=ch_minus,
        chern_plus=ch_plus,
        delta=sign,
        h=h,
        gluing=gluing,
        frames=frames,
        residuals=res,
        provenance=field.provenance,
    )


@dataclass
class SplitCertificate:
    """P = P- (+) P+ with residual evidence and factor Chern numbers.

    The factors are kept as the frames F = (F-, F+): ``minus`` and ``plus``
    form the sampled fields of F- F-^dagger and F+ F+^dagger on the split's
    grid on each access, with the same samples as the fields the split
    checked.
    """

    chern_minus: int
    chern_plus: int
    delta: int
    h: int
    gluing: GluingMatrixPath
    frames: np.ndarray
    residuals: dict
    provenance: str

    @property
    def minus(self) -> SampledProjectionField:
        n = self.frames.shape[-1] // 2
        return _factor_field(self.frames[:-1, ..., :n], f"minus factor of ({self.provenance})")

    @property
    def plus(self) -> SampledProjectionField:
        n = self.frames.shape[-1] // 2
        return _factor_field(self.frames[:-1, ..., n:], f"plus factor of ({self.provenance})")


def _factor_field(frames, provenance):
    """The sampled field of F F^dagger over a frame grid (N1, N2, D, r),
    formed one row of nodes at a time, as the split forms its factors."""
    samples = np.array([f @ linalg.dagger(f) for f in frames])
    return SampledProjectionField(samples, frames.shape[-1], provenance=provenance)


# --------------------------------------------------------------------------
# frames


def pseudo_periodic_frame(
    field: ProjectionField,
    grid: Grid2 = DEFAULT_GRID,
    max_depth=MAX_REFINE_DEPTH,
) -> FrameField:
    """Frame periodic everywhere except exp(i Ch(P) k2) on the first vector.

    Construction: transport, matching family, the diagonal-twist loop
    g_1 = alpha^{-1} diag(e^{i c k2}, 1, ..) with vanishing det winding,
    a contraction-based homotopy Id -> g_1 parameterized along t, and the
    basis rotation F(t, k2) = U(t, k2) B g_{(t+pi)/(2 pi)}(k2).
    """
    def pipeline(g):
        sheet = transport_2d(field, g, symmetric=False)
        basis = occupied_basis(sheet.base_projector, field.rank)
        fam = matching_family(sheet, basis)
        c = linalg.winding(fam.det_loop())

        twist = np.ones((g.n2, field.rank), dtype=complex)
        twist[:, 0] = np.exp(1j * c * g.nodes2)
        g1 = linalg.dagger(fam.alpha) @ _diag_stack(twist)
        id_loop = np.repeat(np.eye(field.rank)[None], g.n2, axis=0)
        hom = linalg.connect_loops(
            linalg.UnitaryLoop(id_loop), linalg.UnitaryLoop(g1), n_steps=g.n1
        )
        vectors = np.empty((g.n1 + 1, g.n2, field.dim, field.rank), dtype=complex)
        for i in range(g.n1 + 1):
            vectors[i] = sheet.u[i] @ basis @ hom.snapshots[i]
        exponents = np.zeros(field.rank, dtype=int)
        exponents[0] = c
        residuals = _audit_frame(vectors, field, exponents)
        return FrameField(
            vectors,
            exponents,
            symmetric=False,
            residuals=residuals,
            provenance=f"pseudo-periodic frame of ({field.provenance})",
        )

    frame, depth = _run_ladder(grid, pipeline, max_depth)
    frame.residuals["grid_depth"] = depth
    return frame


def symmetric_frame(
    field: ProjectionField,
    grid: Grid2 = DEFAULT_GRID,
    max_depth=MAX_REFINE_DEPTH,
) -> FrameField:
    """Kramers-paired spanning frame; fully periodic iff delta(P) = +1.

    Built from the split with h = 0 or 1 according to the parity of delta:
    the split's own frames ``F = Psi beta^T``, on the split's grid, with the
    sign of the second half flipped to present the pairing
    v_{n+c}(t, k2) = -T v_c(-t, -k2). Column 0 carries the boundary law
    exp(i h k2) and column n its conjugate. Gram, reconstruction, boundary
    law and Kramers pairing are audited.
    """
    if field.trs is None:
        raise InvalidInput("symmetric frames need a TRS-certified field")
    cert = _split(field, None, grid, max_depth)
    frame = _kramers_frame(field, cert)
    frame.residuals["grid_depth"] = cert.residuals["grid_depth"]
    return frame


def _kramers_frame(field, cert):
    """The audited symmetric frame of a split of ``field`` with h from delta."""
    n = field.rank // 2
    vectors = cert.frames.copy()
    vectors[..., n:] *= -1.0
    exponents = np.zeros(2 * n, dtype=int)
    exponents[0] = cert.h
    exponents[n] = -cert.h
    residuals = _audit_frame(vectors, field, exponents, trs=field.trs)
    residuals["delta"] = cert.delta
    return FrameField(
        vectors,
        exponents,
        symmetric=True,
        residuals=residuals,
        provenance=f"symmetric frame of ({field.provenance})",
    )


# --------------------------------------------------------------------------
# symmetric unitary equivalence


def complement_field(field: ProjectionField) -> ProjectionField:
    """The kernel field Id - P, inheriting the TRS certificate."""

    def evaluator(k1, k2):
        return np.eye(field.dim) - field.at(k1, k2)

    return ProjectionField(
        field.dim,
        field.dim - field.rank,
        evaluator,
        trs=field.trs,
        provenance=f"complement of ({field.provenance})",
    )


@dataclass
class EquivalenceResult:
    """Either a symmetric unitary equivalence or the parity obstruction."""

    obstructed: bool
    delta0: int
    delta1: int
    unitary: np.ndarray | None = None  # (N1+1, N2, D, D)
    residuals: dict = dc_field(default_factory=dict)


def symmetric_equivalence(
    field0: ProjectionField,
    field1: ProjectionField,
    grid: Grid2 = DEFAULT_GRID,
    max_depth=MAX_REFINE_DEPTH,
) -> EquivalenceResult:
    """Periodic T-equivariant unitary family with V P0 V^{-1} = P1.

    Exists iff delta(P0) = delta(P1); the mismatch is returned as an
    obstruction result, not an exception. Matched symmetric frames of the
    fields and of their kernels share boundary phase laws, so the vector
    correspondence V v^0_c = v^1_c extends to a genuinely periodic family.
    One refinement ladder; deltas read at the common grid, from the head of
    each field's split, so an obstruction returns before any gluing.
    """
    if field0.dim != field1.dim or field0.rank != field1.rank:
        raise InvalidInput("equivalence needs equal dimension and rank")
    if field0.trs is None or field1.trs is None:
        raise InvalidInput("equivalence needs TRS-certified fields")
    if linalg.op_norm(field0.trs.j - field1.trs.j) > 1e-12:
        raise InvalidInput(
            "equivalence is defined against a single time-reversal operator; "
            "the two fields carry different J"
        )
    sources = [field0, field1]
    if field0.dim > field0.rank:
        sources += [complement_field(field0), complement_field(field1)]
    result, _ = _run_ladder(
        grid,
        lambda g: _equivalence_at_grid(sources, g),
        max_depth,
        soft_errors=(IntegralityViolation,),
    )
    return result


def _equivalence_at_grid(sources, g):
    """Every source split and framed on g; a trigger from any refines all."""
    field0, field1 = sources[:2]
    families = [_symmetric_family(f, g) for f in sources[:2]]
    d0, d1 = families[0][3], families[1][3]
    if d0 != d1:
        return EquivalenceResult(True, d0, d1)
    families += [_symmetric_family(f, g) for f in sources[2:]]
    frames = [
        _kramers_frame(src, _split_at_grid(src, None, fam))
        for src, fam in zip(sources, families)
    ]

    n1, n2 = g.n1, g.n2
    rows = range(n1 + 1)
    neg = (-np.arange(n2)) % n2
    v = np.zeros((n1 + 1, n2, field0.dim, field0.dim), dtype=complex)
    for i in rows:
        for a, b in zip(frames[0::2], frames[1::2]):
            v[i] += b.vectors[i] @ linalg.dagger(a.vectors[i])

    t_nodes = np.append(linalg.grid_nodes(n1), np.pi)
    k2_nodes = linalg.grid_nodes(n2)
    res = {
        "unitarity": max(linalg.unitarity_defect(v[i]) for i in rows),
        "periodicity": float(np.max(np.abs(v[n1] - v[0]))),
        "trs": max(
            linalg.op_norm(field0.trs.conjugate(v[i]) - v[n1 - i][neg]) for i in rows
        ),
        "intertwining": max(
            linalg.op_norm(
                v[i] @ field0.sample_row(t_nodes[i], k2_nodes) @ linalg.dagger(v[i])
                - field1.sample_row(t_nodes[i], k2_nodes)
            )
            for i in rows
        ),
    }
    if max(res.values()) > CERT_TOL:
        raise InvalidInput(f"equivalence residuals out of tolerance: {res}")
    return EquivalenceResult(False, d0, d1, unitary=v, residuals=res)


# --------------------------------------------------------------------------
# homotopy verification


@dataclass
class HomotopyReport:
    """Certificate for a user-supplied path of TRS fields."""

    snapshot_reports: list
    max_consecutive_distance: float
    step_distances: list
    deltas: list
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_homotopy(path, grid: Grid2 = Grid2(16, 16)) -> HomotopyReport:
    """Check a path of fields for TRS validity, step bound 1/2, constant delta.

    Never raises on content failures; the report pinpoints the offending
    snapshot or step.
    """
    failures = []
    reports = []
    for idx, field in enumerate(path):
        rep = validate_field(field, grid)
        reports.append(rep)
        if not rep.passed:
            failures.append(("snapshot", idx, rep.failures()))

    distances = []
    for idx in range(len(path) - 1):
        worst = max(
            linalg.op_norm(
                path[idx].sample_row(k1, grid.nodes2) - path[idx + 1].sample_row(k1, grid.nodes2)
            )
            for k1 in grid.nodes1
        )
        distances.append(worst)
        if worst > 0.5:
            failures.append(("step", idx, worst))

    deltas = []
    for idx, field in enumerate(path):
        try:
            deltas.append(delta(field, grid).value)
        except BandTopoError as err:  # delta undefined counts as a failure
            deltas.append(None)
            failures.append(("delta", idx, str(err)))
    if len({d for d in deltas if d is not None}) > 1:
        failures.append(("delta_constant", None, deltas))

    return HomotopyReport(
        snapshot_reports=reports,
        max_consecutive_distance=max(distances) if distances else 0.0,
        step_distances=distances,
        deltas=deltas,
        failures=failures,
    )


# --------------------------------------------------------------------------
# frame export


def save_frame(frame: FrameField, path):
    """Frame export: grid metadata, boundary law, row-major complex samples."""
    n1p1, n2, dim, r = frame.vectors.shape
    doc = {
        "schema": 1,
        "grid": {"n1": n1p1 - 1, "n2": n2, "t_endpoints_stored": True},
        "dim": dim,
        "rank": r,
        "h": frame.h,
        "boundary_exponents": [int(e) for e in frame.boundary_exponents],
        "symmetric": frame.symmetric,
        "residuals": {k: float(v) for k, v in frame.residuals.items()},
        "vectors": [
            [
                [[float(z.real), float(z.imag)] for z in frame.vectors[i, j].ravel()]
                for j in range(n2)
            ]
            for i in range(n1p1)
        ],
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_frame(path) -> FrameField:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    n1 = doc["grid"]["n1"]
    n2 = doc["grid"]["n2"]
    dim, r = doc["dim"], doc["rank"]
    vectors = np.empty((n1 + 1, n2, dim, r), dtype=complex)
    for i in range(n1 + 1):
        for j in range(n2):
            flat = np.array([complex(p[0], p[1]) for p in doc["vectors"][i][j]])
            vectors[i, j] = flat.reshape(dim, r)
    return FrameField(
        vectors,
        np.array(doc["boundary_exponents"], dtype=int),
        symmetric=doc["symmetric"],
        residuals=doc["residuals"],
        provenance=f"file:{path}",
    )
