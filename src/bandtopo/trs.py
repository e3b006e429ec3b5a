"""Fermionic time-reversal structures and projector fields on the 2-torus.

The antiunitary symmetry is stored as T = (entrywise conjugation) followed
by left multiplication with a unitary J obeying J conj(J) = -Id, so that
T^2 = -Id. On every quaternionic basis produced here T acts in coordinates
as c -> J_c conj(c) with the canonical

    J_c = [[0, -Id_n], [Id_n, 0]].

All sign-sensitive relations downstream (matching-matrix symmetry, gluing
constraints, Kramers pairing of frames) are derived once under this single
convention; see docs/conventions.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .errors import (
    InvalidInput,
    NotInvariant,
    OddQuaternionicDimension,
    RefinementNeeded,
)

IDEMPOTENCY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
RANK_TOL = 1e-8
PERIODICITY_TOL = 1e-10
TRS_TOL = 1e-8


def canonical_j(n: int) -> np.ndarray:
    """The fixed coordinate representation [[0, -Id_n], [Id_n, 0]]."""
    j = np.zeros((2 * n, 2 * n), dtype=complex)
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


@dataclass(frozen=True)
class TRSStructure:
    """Antiunitary T = J . conj with T^2 = -Id on C^D (D even)."""

    j: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.j, dtype=complex)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise InvalidInput("J must be square")
        if j.shape[0] % 2 != 0:
            raise InvalidInput("fermionic time reversal needs even dimension")
        linalg.require_finite(j, "J")
        if linalg.unitarity_defect(j) > 1e-12:
            raise InvalidInput("J must be unitary within 1e-12")
        if linalg.op_norm(j @ j.conj() + np.eye(j.shape[0])) > 1e-12:
            raise InvalidInput("J conj(J) = -Id violated (T^2 != -Id)")
        object.__setattr__(self, "j", j)

    @property
    def dim(self) -> int:
        return self.j.shape[0]

    @classmethod
    def canonical(cls, n: int) -> "TRSStructure":
        return cls(canonical_j(n))

    def apply(self, v) -> np.ndarray:
        """T v = J conj(v); acts columnwise on matrices."""
        return self.j @ np.conj(v)

    def conjugate(self, x) -> np.ndarray:
        """T X T^{-1} = J conj(X) J^dagger for a linear operator X."""
        return self.j @ np.conj(x) @ self.j.conj().T


@dataclass(frozen=True)
class Grid2:
    """Even torus grid with nodes -pi + 2*pi*j/N on each axis.

    The node set (mod 2*pi) is closed under k -> -k and contains the four
    time-reversal invariant points; (pi, .) coincides with the stored
    (-pi, .) row. Axis 1 is the transport direction t, axis 2 is k2.
    """

    n1: int
    n2: int

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if n <= 0 or n % 2 != 0:
                raise InvalidInput("grid sizes must be even positive integers")

    @property
    def nodes1(self) -> np.ndarray:
        return linalg.grid_nodes(self.n1)

    @property
    def nodes2(self) -> np.ndarray:
        return linalg.grid_nodes(self.n2)

    def refined(self, axis=None) -> "Grid2":
        if axis == "t":
            return Grid2(2 * self.n1, self.n2)
        if axis == "k2":
            return Grid2(self.n1, 2 * self.n2)
        return Grid2(2 * self.n1, 2 * self.n2)

    @staticmethod
    def negate_index(j: int, n: int) -> int:
        return (-j) % n


class ProjectionField:
    """Evaluator k -> rank-r orthogonal projector on C^D over the 2-torus.

    ``at`` memoizes per exact node, which keeps repeated pipeline passes
    (validation, transport, matching) from re-diagonalizing models.
    ``sample_points`` evaluates a whole stack of nodes and bypasses the memo;
    ``wilson_z2``, which visits each node once, samples through it.
    Evaluators must be pure; concurrent evaluation at distinct k is safe.
    """

    def __init__(self, dim, rank, evaluator, trs=None, provenance="unspecified"):
        if rank <= 0 or rank > dim:
            raise InvalidInput("rank must lie in 1..dim")
        if trs is not None:
            if trs.dim != dim:
                raise InvalidInput("TRS dimension mismatch")
            if rank % 2 != 0:
                raise InvalidInput("time-reversal symmetric fields have even rank")
        self.dim = int(dim)
        self.rank = int(rank)
        self.trs = trs
        self.provenance = str(provenance)
        self._evaluator = evaluator
        self._cache = {}

    def at(self, k1: float, k2: float) -> np.ndarray:
        key = (float(k1), float(k2))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._checked(key[0], key[1])
            self._cache[key] = hit
        return hit

    def _checked(self, k1, k2):
        p = np.asarray(self._evaluate(k1, k2), dtype=complex)
        if p.shape != (self.dim, self.dim):
            raise InvalidInput("evaluator returned a wrong-shaped matrix")
        return p

    def _evaluate(self, k1, k2):
        return self._evaluator(k1, k2)

    def sample_points(self, k1, k2) -> np.ndarray:
        """The (..., D, D) stack of P over the nodes (k1, k2), broadcast
        together; node by node here, neither reading nor filling the memo.
        Fields whose evaluator takes whole stacks override this."""
        k1, k2 = np.broadcast_arrays(np.asarray(k1, dtype=float), np.asarray(k2, dtype=float))
        out = np.empty(k1.shape + (self.dim, self.dim), dtype=complex)
        for idx in np.ndindex(k1.shape):
            out[idx] = self._checked(float(k1[idx]), float(k2[idx]))
        return out

    def __call__(self, k1, k2):
        return self.at(k1, k2)

    def sample_row(self, k1, nodes2) -> np.ndarray:
        """The (len(nodes2), D, D) stack of P(k1, k2) over the given k2 nodes."""
        return np.array([self.at(k1, k2) for k2 in nodes2])

    def sample_grid(self, grid: Grid2) -> np.ndarray:
        out = np.empty((grid.n1, grid.n2, self.dim, self.dim), dtype=complex)
        for i, k1 in enumerate(grid.nodes1):
            out[i] = self.sample_row(k1, grid.nodes2)
        return out


def constant_field(projector, trs=None, provenance="constant") -> ProjectionField:
    p = np.asarray(projector, dtype=complex)
    rank = int(round(np.trace(p).real))
    return ProjectionField(p.shape[0], rank, lambda k1, k2: p, trs=trs, provenance=provenance)


def direct_sum_fields(a: ProjectionField, b: ProjectionField) -> ProjectionField:
    """Block direct sum; carries a TRS structure iff both summands do."""
    trs = None
    if a.trs is not None and b.trs is not None:
        j = np.zeros((a.dim + b.dim, a.dim + b.dim), dtype=complex)
        j[: a.dim, : a.dim] = a.trs.j
        j[a.dim :, a.dim :] = b.trs.j
        trs = TRSStructure(j)

    def evaluator(k1, k2):
        out = np.zeros((a.dim + b.dim, a.dim + b.dim), dtype=complex)
        out[: a.dim, : a.dim] = a.at(k1, k2)
        out[a.dim :, a.dim :] = b.at(k1, k2)
        return out

    return ProjectionField(
        a.dim + b.dim,
        a.rank + b.rank,
        evaluator,
        trs=trs,
        provenance=f"({a.provenance}) (+) ({b.provenance})",
    )


class SampledProjectionField(ProjectionField):
    """Field backed by grid samples, evaluated by bilinear spectral retraction.

    Between nodes the Hermitian bilinear interpolant is retracted onto the
    rank-r projector manifold through its top-r eigenprojection; adjacent
    samples must stay within operator distance 0.4 so the retraction gap
    stays open. Exact node queries return the stored samples.
    """

    def __init__(self, samples, rank, trs=None, provenance="sampled"):
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 4 or samples.shape[2] != samples.shape[3]:
            raise InvalidInput("samples must have shape (N1, N2, D, D)")
        n1, n2, dim, _ = samples.shape
        step1 = linalg.op_norm(np.roll(samples, -1, axis=0) - samples)
        step2 = linalg.op_norm(np.roll(samples, -1, axis=1) - samples)
        if max(step1, step2) > 0.4:
            raise RefinementNeeded(
                f"sample grid too coarse for retraction: step {max(step1, step2):.3f}",
                axis="t" if step1 >= step2 else "k2",
            )
        self._samples = samples
        self._n1, self._n2 = n1, n2
        # no evaluator: a bound method of self stored on self would be a
        # reference cycle, keeping the samples and the memo alive until a
        # full garbage collection; _evaluate dispatches to _interpolate
        super().__init__(dim, rank, None, trs=trs, provenance=provenance)

    @property
    def samples(self):
        return self._samples

    def _evaluate(self, k1, k2):
        return self._interpolate(k1, k2)

    def _interpolate(self, k1, k2):
        i0, tx = _locate(k1, self._n1)
        j0, ty = _locate(k2, self._n2)
        if tx == 0.0 and ty == 0.0:
            return self._samples[i0, j0]
        i1 = (i0 + 1) % self._n1
        j1 = (j0 + 1) % self._n2
        x = (
            (1 - tx) * (1 - ty) * self._samples[i0, j0]
            + tx * (1 - ty) * self._samples[i1, j0]
            + (1 - tx) * ty * self._samples[i0, j1]
            + tx * ty * self._samples[i1, j1]
        )
        x = 0.5 * (x + x.conj().T)
        w, v = np.linalg.eigh(x)
        if w[self.dim - self.rank] - w[self.dim - self.rank - 1] < 0.1:
            raise InvalidInput("retraction gap closed; samples too coarse")
        occ = v[:, self.dim - self.rank :]
        return occ @ occ.conj().T


def _locate(k, n):
    h = 2.0 * np.pi / n
    x = (k + np.pi) / h
    x = x - n * np.floor(x / n)
    i0 = int(np.floor(x))
    if i0 >= n:
        i0 -= n
    frac = x - i0
    if frac < 1e-12:
        frac = 0.0
    elif frac > 1.0 - 1e-12:
        frac = 0.0
        i0 = (i0 + 1) % n
    return i0, frac


@dataclass
class QuaternionicBasis:
    """Orthonormal basis (u_1..u_n, T u_1..T u_n) of a T-invariant subspace."""

    matrix: np.ndarray  # (D, 2n) columns
    n: int
    gram_residual: float
    span_residual: float
    j_representation_residual: float

    @property
    def j_rep(self) -> np.ndarray:
        return canonical_j(self.n)


def quaternionic_basis(columns, trs: TRSStructure, invariance_tol=TRS_TOL) -> QuaternionicBasis:
    """Extract Kramers-paired orthonormal vectors spanning a T-invariant space.

    Deterministic greedy selection: repeatedly project the input columns
    onto the uncovered remainder, take the largest-residual direction,
    orthogonalize it against the accumulated pairs and adjoin its T-partner.
    Orthogonality of partners is automatic from T^2 = -Id.
    """
    v = np.asarray(columns, dtype=complex)
    if v.ndim != 2:
        raise InvalidInput("spanning set must be a matrix of columns")
    dim, width = v.shape
    if width % 2 != 0:
        raise OddQuaternionicDimension(
            f"quaternionic bases need even dimension, got {width}"
        )
    if linalg.op_norm(v.conj().T @ v - np.eye(width)) > 1e-8:
        raise InvalidInput("spanning columns must be orthonormal")
    pi = v @ v.conj().T
    inv_res = linalg.op_norm(trs.conjugate(pi) - pi)
    if inv_res > invariance_tol:
        raise NotInvariant(f"span is not T-invariant: residual {inv_res:.3e}")

    n = width // 2
    us = []
    accumulated = np.zeros((dim, 0), dtype=complex)
    for _ in range(n):
        residual = pi - accumulated @ accumulated.conj().T
        cand = residual @ v
        norms = np.linalg.norm(cand, axis=0)
        best = int(np.argmax(norms))
        if norms[best] < 1e-8:
            raise InvalidInput("greedy pair extraction ran out of directions")
        u = cand[:, best] / norms[best]
        for _ in range(3):
            u = u - accumulated @ (accumulated.conj().T @ u)
            u = u / np.linalg.norm(u)
        tu = trs.apply(u)
        us.append(u)
        accumulated = np.concatenate([accumulated, u[:, None], tu[:, None]], axis=1)

    b = np.concatenate(
        [np.stack(us, axis=1), np.stack([trs.apply(u) for u in us], axis=1)], axis=1
    )
    gram = linalg.op_norm(b.conj().T @ b - np.eye(width))
    span = linalg.op_norm(b @ b.conj().T - pi)
    jrep = linalg.op_norm(b.conj().T @ trs.apply(b) - canonical_j(n))
    if gram > 1e-10:
        raise InvalidInput(f"extracted basis lost orthonormality: {gram:.3e}")
    return QuaternionicBasis(b, n, gram, span, jrep)


@dataclass
class ValidationReport:
    """Residual audit of a ProjectionField over a grid."""

    residuals: dict
    worst_points: dict
    thresholds: dict
    checked_trs: bool

    @property
    def passed(self) -> bool:
        return all(
            self.residuals[name] <= self.thresholds[name] for name in self.residuals
        )

    def failures(self):
        return {
            name: (self.residuals[name], self.thresholds[name])
            for name in self.residuals
            if self.residuals[name] > self.thresholds[name]
        }


def _worst(values, k1s, k2s):
    """Largest residual and the first node (k1s[k], k2s[k]) attaining it.

    A residual of zero keeps the default point (0.0, 0.0).
    """
    k = int(np.argmax(values))
    if values[k] > 0.0:
        return float(values[k]), (k1s[k], k2s[k])
    return 0.0, (0.0, 0.0)


def validate_field(field: ProjectionField, grid: Grid2) -> ValidationReport:
    """Audit idempotency, hermiticity, rank, periodicity and TRS residuals.

    Side-effect free and idempotent; failures are reported, never raised.
    Residuals are computed one k1 row at a time; each worst point is the
    first node in row-major order attaining its residual.
    """
    nodes1, nodes2 = grid.nodes1, grid.nodes2
    n1, n2 = grid.n1, grid.n2
    checked_trs = field.trs is not None
    thresholds = {
        "idempotency": IDEMPOTENCY_TOL,
        "hermiticity": HERMITICITY_TOL,
        "rank": RANK_TOL,
        "periodicity": PERIODICITY_TOL,
    }
    if checked_trs:
        thresholds["trs"] = TRS_TOL
    per_node = {name: np.empty((n1, n2)) for name in thresholds if name != "periodicity"}

    samples = field.sample_grid(grid)
    neg2 = (-np.arange(n2)) % n2
    for i in range(n1):
        p = samples[i]
        per_node["idempotency"][i] = linalg.op_norms(p @ p - p)
        per_node["hermiticity"][i] = linalg.op_norms(p - linalg.dagger(p))
        per_node["rank"][i] = np.abs(np.trace(p, axis1=-2, axis2=-1).real - field.rank)
        if checked_trs:
            mirror = samples[Grid2.negate_index(i, n1)][neg2]
            per_node["trs"][i] = linalg.op_norms(field.trs.conjugate(p) - mirror)

    # periodicity along both axes on the grid edges
    shifted1 = field.sample_row(nodes1[0] + 2.0 * np.pi, nodes2)
    shifted2 = np.array([field.at(k1, nodes2[0] + 2.0 * np.pi) for k1 in nodes1])
    edges = (
        np.concatenate(
            [linalg.op_norms(shifted1 - samples[0]), linalg.op_norms(shifted2 - samples[:, 0])]
        ),
        np.concatenate([np.full(n2, nodes1[0]), nodes1]),
        np.concatenate([nodes2, np.full(n1, nodes2[0])]),
    )
    on_grid = (np.repeat(nodes1, n2), np.tile(nodes2, n1))

    residuals, worst = {}, {}
    for name in thresholds:
        values, k1s, k2s = edges if name == "periodicity" else (per_node[name].ravel(), *on_grid)
        residuals[name], worst[name] = _worst(values, k1s, k2s)
    return ValidationReport(residuals, worst, thresholds, checked_trs)


def trs_conjugate_field(field: ProjectionField, trs: TRSStructure) -> ProjectionField:
    """The field k -> T P(-k) T^{-1}; an involution up to 1e-12."""
    if trs.dim != field.dim:
        raise InvalidInput("TRS dimension mismatch")

    def evaluator(k1, k2):
        return trs.conjugate(field.at(-k1, -k2))

    return ProjectionField(
        field.dim,
        field.rank,
        evaluator,
        trs=field.trs,
        provenance=f"T-conjugate of ({field.provenance})",
    )
