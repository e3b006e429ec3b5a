"""Kato-Nagy intertwiners and continuous parallel transport over the torus.

The 2-d construction transports the base projector P(0,0) along the k2
axis first (periodized through the holonomy logarithm, optionally chosen
to commute with time reversal), then chains intertwiners in the t
direction column by column. Sheets store both t = -pi and t = +pi columns
so that matching matrices can be read off without recomputation; they are
periodic in k2 but deliberately not in t.

Adaptive bisection keeps every intertwiner step below operator distance
0.3, a working margin under the 1/2 that guarantees invertibility of the
Kato-Nagy factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInput, RefinementNeeded, TooFar
from .trs import Grid2, ProjectionField

KN_STEP_TARGET = 0.3
MAX_BISECT_DEPTH = 8
PROJECTOR_TOL = 1e-10


def _check_projector(p, name):
    if linalg.hermiticity_defect(p) > PROJECTOR_TOL or linalg.op_norm(p @ p - p) > PROJECTOR_TOL:
        raise InvalidInput(f"{name} is not an orthogonal projector within 1e-10")


def kato_nagy(p, q):
    """Unitary U with q = U p U^{-1}, defined whenever ||p - q|| < 1.

    U = [q p + (Id - q)(Id - p)] [Id - (p - q)^2]^{-1/2}.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    _check_projector(p, "first projector")
    _check_projector(q, "second projector")
    dist = linalg.op_norm(p - q)
    if dist >= 1.0 - 1e-9:
        raise TooFar(f"projector distance {dist:.12f} >= 1 - 1e-9")
    eye = np.eye(p.shape[0])
    m = eye - (p - q) @ (p - q)
    return (q @ p + (eye - q) @ (eye - p)) @ linalg.inv_sqrt_psd(m)


def _chain_step(p_eval, k_a, k_b, step_target, depth, axis):
    """Kato-Nagy product transporting P(k_a) to P(k_b), bisecting as needed."""
    pa, pb = p_eval(k_a), p_eval(k_b)
    if linalg.op_norm(pa - pb) <= step_target:
        return kato_nagy(pa, pb)
    if depth >= MAX_BISECT_DEPTH:
        raise RefinementNeeded(
            f"projector step between {k_a:.4f} and {k_b:.4f} stays above "
            f"{step_target} at bisection depth {MAX_BISECT_DEPTH}",
            axis=axis,
        )
    mid = 0.5 * (k_a + k_b)
    left = _chain_step(p_eval, k_a, mid, step_target, depth + 1, axis)
    right = _chain_step(p_eval, mid, k_b, step_target, depth + 1, axis)
    return right @ left


@dataclass
class Transport1D:
    """Periodized transport along a loop: u[j] at k_j, both endpoints stored."""

    u: np.ndarray  # (N+1, D, D); u[N] == u[0]
    base_projector: np.ndarray
    symmetric: bool
    holonomy_log: np.ndarray

    @property
    def grid_size(self) -> int:
        return self.u.shape[0] - 1


def _blockwise_commuting_log(w, base, trs=None):
    """Hermitian L with exp(iL) = w, [L, base] = 0 by blockwise construction.

    ``base`` is an orthogonal projector commuting with w. In the symmetric
    case L is averaged with its T-conjugate (eigenspaces of w are
    T-invariant, so the average stays a logarithm) and re-verified.
    """
    d = base.shape[0]
    wvals, vecs = np.linalg.eigh(base)
    kernel = vecs[:, wvals < 0.5]
    image = vecs[:, wvals >= 0.5]
    basis = np.concatenate([image, kernel], axis=1)
    r = image.shape[1]
    wb = basis.conj().T @ w @ basis
    blocks = [wb[:r, :r], wb[r:, r:]]
    logs = []
    for blk in blocks:
        if blk.size == 0:
            logs.append(np.zeros((0, 0), dtype=complex))
            continue
        logs.append(linalg.unitary_log(linalg.polar_unitary(blk)))
    lb = np.zeros((d, d), dtype=complex)
    lb[:r, :r] = logs[0]
    lb[r:, r:] = logs[1]
    l = basis @ lb @ basis.conj().T
    l = 0.5 * (l + l.conj().T)
    if trs is not None:
        l = 0.5 * (l + trs.conjugate(l))
        l = 0.5 * (l + l.conj().T)
    if linalg.op_norm(linalg.expm_i_hermitian(l) - w) > 1e-8:
        raise RefinementNeeded(
            "holonomy logarithm lost the exponential round trip", axis=None
        )
    return l


def transport_1d(p_eval, n, trs=None, step_target=KN_STEP_TARGET, axis_label="k2"):
    """Continuous periodic transport along a projector loop.

    ``p_eval`` maps a scalar k to a projector; the loop is sampled at the
    standard n-point grid. The returned family satisfies u(0) = Id,
    P(k) = u(k) P(0) u(k)^{-1} and u(pi) = u(-pi) exactly, periodization
    going through the holonomy logarithm chosen to commute with P(0) (and
    with T when ``trs`` is given).
    """
    if n % 2 != 0:
        raise InvalidInput("transport grid must be even")
    nodes = linalg.grid_nodes(n)
    d = np.asarray(p_eval(0.0)).shape[0]
    mid = n // 2  # index of k = 0

    u = np.empty((n + 1, d, d), dtype=complex)
    u[mid] = np.eye(d)
    for j in range(mid + 1, n + 1):
        k_prev = nodes[j - 1]
        k_here = nodes[j] if j < n else np.pi
        step = _chain_step(p_eval, k_prev, k_here, step_target, 0, axis_label)
        u[j] = step @ u[j - 1]
    if trs is None:
        for j in range(mid - 1, -1, -1):
            step = _chain_step(p_eval, nodes[j + 1], nodes[j], step_target, 0, axis_label)
            u[j] = step @ u[j + 1]
    else:
        for j in range(mid - 1, -1, -1):
            u[j] = trs.conjugate(u[n - j])

    base = np.asarray(p_eval(0.0), dtype=complex)
    holonomy = u[0].conj().T @ u[n]
    l = _blockwise_commuting_log(holonomy, base, trs=trs)

    for j in range(n + 1):
        k = nodes[j] if j < n else np.pi
        u[j] = u[j] @ linalg.expm_i_hermitian(-(k / (2.0 * np.pi)) * l)
    closure = linalg.op_norm(u[n] - u[0])
    if closure > 1e-9:
        raise RefinementNeeded(f"periodization closure residual {closure:.3e}", axis=axis_label)
    u[n] = u[0]
    return Transport1D(u, base, trs is not None, l)


@dataclass
class TransportSheet:
    """Unitary transport grid over [-pi, pi] x T^1 with base P(0,0).

    ``u`` has shape (N1+1, N2, D, D); row i lives at t_i = -pi + 2*pi*i/N1
    (both endpoints kept), column j at the periodic k2 node j. Residual
    fields report the worst intertwining / k2-periodicity / symmetry
    defects found during construction.
    """

    u: np.ndarray
    base_projector: np.ndarray
    symmetric: bool
    grid: Grid2
    intertwining_residual: float
    symmetry_residual: float

    @property
    def dim(self) -> int:
        return self.u.shape[2]

    def column_minus_pi(self) -> np.ndarray:
        return self.u[0]

    def column_plus_pi(self) -> np.ndarray:
        return self.u[-1]


def transport_2d(
    field: ProjectionField,
    grid: Grid2,
    symmetric=False,
    step_target=KN_STEP_TARGET,
) -> TransportSheet:
    """Transport P(0,0) across the whole sampled torus.

    Construction: periodic 1-d transport along t = 0, then chained
    Kato-Nagy steps in t for t in [0, pi] per column; the t in [-pi, 0]
    half is the T-mirror u(t, k2) = T u(-t, -k2) T^{-1} when symmetric,
    an independent downward chain otherwise.
    """
    if symmetric and field.trs is None:
        raise InvalidInput("symmetric transport needs a TRS-certified field")
    n1, n2 = grid.n1, grid.n2
    t_nodes = np.append(grid.nodes1, np.pi)
    k2_nodes = grid.nodes2
    d = field.dim
    mid = n1 // 2
    trs = field.trs if symmetric else None

    line = transport_1d(
        lambda k2: field.at(0.0, k2),
        n2,
        trs=trs,
        step_target=step_target,
        axis_label="k2",
    )

    u = np.empty((n1 + 1, n2, d, d), dtype=complex)
    u[mid] = line.u[:n2]

    for j, k2 in enumerate(k2_nodes):
        p_eval = lambda t, _k2=k2: field.at(t, _k2)
        for i in range(mid + 1, n1 + 1):
            step = _chain_step(p_eval, t_nodes[i - 1], t_nodes[i], step_target, 0, "t")
            u[i, j] = step @ u[i - 1, j]
        if not symmetric:
            for i in range(mid - 1, -1, -1):
                step = _chain_step(p_eval, t_nodes[i + 1], t_nodes[i], step_target, 0, "t")
                u[i, j] = step @ u[i + 1, j]
    # the T-mirror and the audits go one t-row of n2 matrices at a time,
    # so they allocate no temporary the size of the sheet
    neg = (-np.arange(n2)) % n2
    if symmetric:
        for i in range(mid - 1, -1, -1):
            u[i] = trs.conjugate(u[n1 - i][neg])

    base = field.at(0.0, 0.0)
    inter = max(
        linalg.op_norm(u[i] @ base @ linalg.dagger(u[i]) - field.sample_row(t, k2_nodes))
        for i, t in enumerate(t_nodes)
    )
    sym_res = 0.0
    if symmetric:
        sym_res = max(
            linalg.op_norm(trs.conjugate(u[i]) - u[n1 - i][neg]) for i in range(mid, n1 + 1)
        )

    return TransportSheet(
        u=u,
        base_projector=base,
        symmetric=symmetric,
        grid=grid,
        intertwining_residual=inter,
        symmetry_residual=sym_res,
    )
