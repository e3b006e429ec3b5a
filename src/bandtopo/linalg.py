"""Dense complex-matrix kernel and loop-homotopy primitives.

Conventions fixed package-wide (see docs/conventions.md):

* every precondition uses the operator 2-norm; Frobenius norms appear only
  inside diagnostics and are labeled as such,
* loops are sampled at ``k_j = -pi + 2*pi*j/N`` for ``j = 0..N-1`` with the
  wrap step ``j = N-1 -> 0`` included in all step and Nyquist checks,
* the winding number is normalized so that ``k -> exp(i*k)`` winds once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    BranchCutFailure,
    ContractionFailure,
    InvalidInput,
    ObstructedLoop,
    RefinementNeeded,
    SingularFactor,
    SymmetryBroken,
)

UNITARY_TOL = 1e-10
HERM_TOL = 1e-10
BRANCH_MARGIN = 1e-6
N_CUT_CANDIDATES = 16
EXP_ROUNDTRIP_TOL = 1e-9
J_SYMMETRY_TOL = 1e-8
MAX_NYQUIST_STEP = 0.5 * np.pi

_CONTRACTION_SEED = 0x5EED
_ANTIPODE_MARGIN = 0.3  # radians kept clear of the slerp antipode
_TARGET_SNAPSHOT_STEP = 0.4


def grid_nodes(n: int) -> np.ndarray:
    """Torus nodes -pi + 2*pi*j/n for j = 0..n-1."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return np.swapaxes(np.conj(a), -1, -2)


def op_norms(a) -> np.ndarray:
    """Operator 2-norm of every matrix in a stack (..., m, n)."""
    return np.linalg.norm(a, 2, axis=(-2, -1))


def op_norm(a) -> float:
    """Operator 2-norm (largest singular value); the largest over a stack.

    A stack (..., m, n) is reduced to the maximum of its matrices' norms,
    which equals the maximum of per-matrix calls exactly; an empty stack
    gives 0.0.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(op_norms(a).max())


def require_finite(a, name="matrix"):
    if not np.all(np.isfinite(np.asarray(a))):
        raise InvalidInput(f"{name} contains NaN or Inf entries")


def unitarity_defect(u) -> float:
    """||u^dagger u - Id||, the largest over a stack (..., m, n)."""
    u = np.asarray(u)
    return op_norm(dagger(u) @ u - np.eye(u.shape[-1]))


def hermiticity_defect(a) -> float:
    """||a - a^dagger||, the largest over a stack (..., m, m)."""
    a = np.asarray(a)
    return op_norm(a - dagger(a))


def check_unitary(u, tol=UNITARY_TOL, name="matrix"):
    d = unitarity_defect(u)
    if d > tol:
        raise InvalidInput(f"{name} is not unitary: defect {d:.3e} > {tol:.1e}")


def polar_unitary(x) -> np.ndarray:
    """Unitary factor of the polar decomposition."""
    u, _, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    return u @ vh


def eigh(h):
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues.

    Raises InvalidInput when the Hermiticity defect exceeds 1e-10 in
    operator norm.
    """
    h = np.asarray(h, dtype=complex)
    require_finite(h, "eigh input")
    d = hermiticity_defect(h)
    if d > HERM_TOL:
        raise InvalidInput(f"eigh input not Hermitian: defect {d:.3e}")
    w, v = np.linalg.eigh(h)
    return w, v


def inv_sqrt_psd(a, floor=1e-12):
    """Inverse square root of a Hermitian positive definite matrix.

    The result B is Hermitian with B @ B @ a = Id up to 1e-10. Eigenvalues
    below ``floor`` raise SingularFactor, which downstream signals a
    projector pair at distance too close to 1.
    """
    w, v = eigh(a)
    if w.min() < floor:
        raise SingularFactor(
            f"eigenvalue {w.min():.3e} below floor {floor:.1e} in inverse square root"
        )
    b = (v * (w ** -0.5)) @ v.conj().T
    return 0.5 * (b + b.conj().T)


def expm_i_hermitian(l):
    """exp(i*L) for Hermitian L, via eigendecomposition."""
    w, v = np.linalg.eigh(np.asarray(l, dtype=complex))
    return (v * np.exp(1j * w)) @ v.conj().T


def unitary_eig(u, tol=UNITARY_TOL, name="matrix"):
    """Spectral decomposition of a unitary matrix with orthonormal eigenvectors.

    Uses the complex Schur form; for (numerically) normal input the Schur
    factor is diagonal to machine precision, so its columns give an exactly
    unitary eigenbasis even across degenerate clusters.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u, tol, name)
    t, z = scipy.linalg.schur(u, output="complex")
    vals = np.diag(t).copy()
    off = op_norm(t - np.diag(vals))
    if off > 100 * max(tol, 1e-13):
        raise InvalidInput(f"{name}: Schur form not diagonal (defect {off:.3e})")
    return vals, z


def _circular_distance(a, b):
    d = np.mod(a - b + np.pi, 2.0 * np.pi) - np.pi
    return np.abs(d)


def _apply_j_transpose(j, l):
    return j @ l.T @ j.conj().T


def unitary_log(
    u,
    j_structure=None,
    *,
    n_cut=N_CUT_CANDIDATES,
    branch_margin=BRANCH_MARGIN,
):
    """Hermitian L with exp(i*L) = u and eigenvalues inside one branch arc.

    The branch cut direction is chosen among ``n_cut`` evenly spaced
    candidates as the one with the largest spectral margin on the unit
    circle; degenerate (Kramers) eigenvalue pairs thereby share a branch.

    With ``j_structure`` given, the input must satisfy
    ``J u^T J^{-1} = u`` within 1e-8 and the output additionally satisfies
    ``J L^T J^{-1} = L``, enforced by averaging and re-verified against the
    exponential round trip.
    """
    u = np.asarray(u, dtype=complex)
    if j_structure is not None:
        j = np.asarray(j_structure, dtype=complex)
        sym = op_norm(_apply_j_transpose(j, u) - u)
        if sym > J_SYMMETRY_TOL:
            raise SymmetryBroken(
                f"input breaks the J-transpose symmetry: residual {sym:.3e}"
            )
    vals, vecs = unitary_eig(u, name="unitary_log input")
    theta = np.angle(vals)

    cuts = -np.pi + 2.0 * np.pi * np.arange(n_cut) / n_cut
    margins = np.array([_circular_distance(theta, c).min() for c in cuts])
    best = int(np.argmax(margins))
    if margins[best] < branch_margin:
        raise BranchCutFailure(
            f"no cut among {n_cut} candidates has margin >= {branch_margin:.1e} "
            f"(best {margins[best]:.3e})"
        )
    cut = cuts[best]
    phases = cut + np.mod(theta - cut, 2.0 * np.pi)

    l = (vecs * phases) @ vecs.conj().T
    l = 0.5 * (l + l.conj().T)
    if j_structure is not None:
        l = 0.5 * (l + _apply_j_transpose(j, l))
        l = 0.5 * (l + l.conj().T)
        res = op_norm(_apply_j_transpose(j, l) - l)
        if res > J_SYMMETRY_TOL:
            raise SymmetryBroken(f"symmetrized logarithm residual {res:.3e}")
    back = op_norm(expm_i_hermitian(l) - u)
    if back > EXP_ROUNDTRIP_TOL:
        raise BranchCutFailure(
            f"logarithm failed the exponential round trip: residual {back:.3e}"
        )
    return l


def principal_unitary_log(u, margin=1e-8):
    """Hermitian log with eigenphases in (-pi, pi); requires margin from -1."""
    vals, vecs = unitary_eig(u, name="principal log input")
    theta = np.angle(vals)
    if np.max(np.abs(theta)) > np.pi - margin:
        return unitary_log(u)
    l = (vecs * theta) @ vecs.conj().T
    return 0.5 * (l + l.conj().T)


# --------------------------------------------------------------------------
# loops


@dataclass(frozen=True)
class PhaseLoop:
    """Unit-modulus samples at k_j = -pi + 2*pi*j/N, j = 0..N-1 (N even).

    The loop is implicitly periodic; the wrap step participates in the
    Nyquist margin. Loops with any phase increment above pi/2 are flagged
    under-resolved and winding extraction refuses them.
    """

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size == 0:
            raise InvalidInput("phase loop needs a 1-d sample array")
        if s.size % 2 != 0:
            raise InvalidInput("phase loop sample count must be even")
        if not np.all(np.isfinite(s)):
            raise InvalidInput("phase loop contains non-finite samples")
        if np.max(np.abs(np.abs(s) - 1.0)) > 1e-10:
            raise InvalidInput("phase loop samples must have unit modulus (1e-10)")
        object.__setattr__(self, "samples", s)

    @property
    def grid_size(self) -> int:
        return self.samples.size

    def increments(self) -> np.ndarray:
        """Principal-branch phase steps, wrap step included (length N)."""
        return np.angle(np.roll(self.samples, -1) / self.samples)

    @property
    def under_resolved(self) -> bool:
        return bool(np.max(np.abs(self.increments())) > MAX_NYQUIST_STEP)

    @property
    def step_margin(self) -> float:
        """Distance of the worst phase step from the pi/2 Nyquist bound."""
        return float(MAX_NYQUIST_STEP - np.max(np.abs(self.increments())))


def winding(loop) -> int:
    """Winding number of a phase loop: sum of principal increments / 2*pi.

    Raises RefinementNeeded when the loop is under-resolved so callers can
    double the grid (up to depth 8) before giving up.
    """
    if not isinstance(loop, PhaseLoop):
        loop = PhaseLoop(np.asarray(loop))
    if loop.under_resolved:
        raise RefinementNeeded(
            "phase loop under-resolved: a step exceeds pi/2", axis="k2"
        )
    total = loop.increments().sum() / (2.0 * np.pi)
    w = int(np.round(total))
    if abs(total - w) > 1e-6:
        raise InvalidInput(f"winding sum {total:.3e} is not an integer")
    return w


def unwrap_path(samples, anchor=None):
    """Continuous lift of unit-modulus samples along an open path.

    ``anchor`` fixes the starting value (it must represent samples[0]);
    default is the principal argument of the first sample. Steps above
    pi/2 raise RefinementNeeded.
    """
    s = np.asarray(samples, dtype=complex)
    inc = np.angle(s[1:] / s[:-1])
    if inc.size and np.max(np.abs(inc)) > MAX_NYQUIST_STEP:
        raise RefinementNeeded("phase path under-resolved", axis="k2")
    start = float(np.angle(s[0])) if anchor is None else float(anchor)
    if abs(np.exp(1j * start) - s[0] / abs(s[0])) > 1e-6:
        raise InvalidInput("anchor does not represent the first sample")
    out = np.empty(s.size)
    out[0] = start
    out[1:] = start + np.cumsum(inc)
    return out


@dataclass(frozen=True)
class UnitaryLoop:
    """Loop of m x m unitaries on the PhaseLoop grid."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise InvalidInput("unitary loop needs shape (N, m, m)")
        if s.shape[0] % 2 != 0:
            raise InvalidInput("unitary loop sample count must be even")
        defect = unitarity_defect(s)
        if defect > UNITARY_TOL:
            raise InvalidInput(f"unitary loop sample defect {defect:.3e} > 1e-10")
        object.__setattr__(self, "samples", s)

    @property
    def grid_size(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def max_step(self) -> float:
        """Largest consecutive-sample distance, wrap step included."""
        return op_norm(np.roll(self.samples, -1, axis=0) - self.samples)

    def det_loop(self) -> PhaseLoop:
        """Determinant phases, normalized back onto the unit circle."""
        d = np.linalg.det(self.samples)
        return PhaseLoop(d / np.abs(d))


@dataclass(frozen=True)
class LoopHomotopy:
    """S+1 unitary-loop snapshots at s = 0..S, sharing grid and dimension."""

    snapshots: np.ndarray  # (S+1, N, m, m)

    def __post_init__(self):
        s = np.asarray(self.snapshots, dtype=complex)
        if s.ndim != 4 or s.shape[2] != s.shape[3]:
            raise InvalidInput("homotopy needs shape (S+1, N, m, m)")
        if s.shape[0] < 2:
            raise InvalidInput("homotopy needs at least two snapshots")
        object.__setattr__(self, "snapshots", s)

    @property
    def n_steps(self) -> int:
        return self.snapshots.shape[0] - 1

    def loop(self, index) -> UnitaryLoop:
        return UnitaryLoop(self.snapshots[index])

    def max_snapshot_step(self) -> float:
        return op_norm(self.snapshots[1:] - self.snapshots[:-1])

    def unitarity_defect(self) -> float:
        return unitarity_defect(self.snapshots)

    def verify(self, tol=1e-9) -> dict:
        """Residual summary; raises nothing, callers assert on the fields."""
        return {
            "unitarity": self.unitarity_defect(),
            "max_snapshot_step": self.max_snapshot_step(),
            "snapshot_windings": [
                winding(UnitaryLoop(s).det_loop()) for s in self.snapshots
            ],
            "tol": tol,
        }

    def resample(self, n_steps: int) -> "LoopHomotopy":
        """Geodesic resampling to n_steps+1 uniform snapshots; endpoints exact."""
        if n_steps < 1:
            raise InvalidInput("resample needs n_steps >= 1")
        old = self.snapshots
        s_old = np.linspace(0.0, 1.0, old.shape[0])
        out = np.empty((n_steps + 1,) + old.shape[1:], dtype=complex)
        out[0] = old[0]
        out[-1] = old[-1]
        for i in range(1, n_steps):
            s = i / n_steps
            k = int(np.searchsorted(s_old, s, side="right") - 1)
            k = min(max(k, 0), old.shape[0] - 2)
            tau = (s - s_old[k]) / (s_old[k + 1] - s_old[k])
            for j in range(old.shape[1]):
                w = old[k, j].conj().T @ old[k + 1, j]
                l = principal_unitary_log(w)
                out[i, j] = old[k, j] @ expm_i_hermitian(tau * l)
        return LoopHomotopy(out)


# --------------------------------------------------------------------------
# constructive contraction in the unitary group


def rotation_mapping(a, b):
    """Unitary sending unit vector a exactly to b, identity off span{a, b}."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.size
    c1 = np.vdot(a, b)
    r = b - c1 * a
    c2 = np.linalg.norm(r)
    if c2 < 1e-12:
        # colinear: pure phase twist in the a direction
        return np.eye(n, dtype=complex) + (c1 - 1.0) * np.outer(a, a.conj())
    u2 = r / c2
    basis = np.stack([a, u2], axis=1)
    small = np.array([[c1, -c2], [c2, np.conj(c1)]])
    out = np.eye(n, dtype=complex) + basis @ (small - np.eye(2)) @ basis.conj().T
    return out


def _real_angle(p, c):
    """Geodesic angle on the real unit sphere underlying C^m."""
    return np.arccos(np.clip(np.real(np.vdot(p, c)), -1.0, 1.0))


def _slerp(c, p, tau, omega):
    if omega < 1e-9:
        return c
    out = (np.sin((1.0 - tau) * omega) * c + np.sin(tau * omega) * p) / np.sin(omega)
    return out / np.linalg.norm(out)


def _contract_phase_level(samples):
    """Snapshots contracting a winding-zero scalar loop to a constant."""
    loop = PhaseLoop(samples / np.abs(samples))
    if loop.under_resolved:
        raise RefinementNeeded("scalar loop under-resolved in contraction", axis="k2")
    inc = loop.increments()
    psi = np.empty(samples.size)
    psi[0] = np.angle(samples[0])
    psi[1:] = psi[0] + np.cumsum(inc[:-1])
    spread = np.max(np.abs(psi - psi[0]))
    steps = max(1, int(np.ceil(spread / _TARGET_SNAPSHOT_STEP)))
    target = psi[0]
    snaps = []
    for i in range(1, steps + 1):
        s = i / steps
        snaps.append(np.exp(1j * ((1.0 - s) * psi + s * target)))
    return snaps


def _contract_special_level(loop_samples, rng, max_retries):
    """Column-induction contraction; returns snapshots ending at a constant loop."""
    n, m, _ = loop_samples.shape
    if m == 1:
        return [s.reshape(n, 1, 1) for s in _contract_phase_level(loop_samples[:, 0, 0])]

    cols = loop_samples[:, :, m - 1]
    target = None
    e_last = np.zeros(m, dtype=complex)
    e_last[m - 1] = 1.0
    for attempt in range(max_retries):
        cand = e_last if attempt == 0 else _random_unit_vector(rng, m)
        worst = np.max([_real_angle(cand, cols[j]) for j in range(n)])
        if worst <= np.pi - _ANTIPODE_MARGIN:
            target = cand
            break
    if target is None:
        raise ContractionFailure(
            f"no antipode-free slerp target found in {max_retries} attempts"
        )

    omegas = np.array([_real_angle(target, cols[j]) for j in range(n)])
    steps = max(1, int(np.ceil(omegas.max() / _TARGET_SNAPSHOT_STEP)))

    snaps = []
    current = loop_samples.copy()
    prev_cols = cols.copy()
    for i in range(1, steps + 1):
        tau = i / steps
        nxt = np.empty_like(current)
        new_cols = np.empty_like(prev_cols)
        for j in range(n):
            cj = _slerp(cols[j], target, tau, omegas[j])
            rot = rotation_mapping(prev_cols[j], cj)
            nxt[j] = rot @ current[j]
            new_cols[j] = cj
        current, prev_cols = nxt, new_cols
        snaps.append(current.copy())

    # carry the constant target column onto the last coordinate axis
    q = rotation_mapping(target, e_last)
    lq = unitary_log(q)
    q_steps = max(1, int(np.ceil(op_norm(lq) / _TARGET_SNAPSHOT_STEP)))
    for i in range(1, q_steps + 1):
        qi = expm_i_hermitian((i / q_steps) * lq)
        snaps.append(np.einsum("ab,jbc->jac", qi, current))
    current = snaps[-1]

    # lock the exact block structure and recurse on the head block
    head = np.empty((n, m - 1, m - 1), dtype=complex)
    locked = np.zeros_like(current)
    for j in range(n):
        head[j] = polar_unitary(current[j][: m - 1, : m - 1])
        locked[j][: m - 1, : m - 1] = head[j]
        locked[j][m - 1, m - 1] = 1.0
    snaps.append(locked)

    for sub in _contract_special_level(head, rng, max_retries):
        emb = np.zeros((n, m, m), dtype=complex)
        emb[:, : m - 1, : m - 1] = sub
        emb[:, m - 1, m - 1] = 1.0
        snaps.append(emb)
    return snaps


def _random_unit_vector(rng, m):
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


def contract_loop(gamma: UnitaryLoop, *, max_retries=20) -> LoopHomotopy:
    """Contract a det-winding-zero unitary loop to a constant loop.

    Strategy: peel the determinant into the first diagonal entry and
    contract its (periodic) phase lift linearly, then contract the residual
    special-unitary loop by column induction. Each last-column loop lives on
    the unit sphere of C^m (m >= 2), so it slerps to a fixed target chosen
    with an antipode margin; the motion is carried by exact plane rotations
    and the dimension recurses. Nonzero winding raises ObstructedLoop.
    """
    if not isinstance(gamma, UnitaryLoop):
        gamma = UnitaryLoop(np.asarray(gamma))
    w = winding(gamma.det_loop())
    if w != 0:
        raise ObstructedLoop(f"determinant winding {w} != 0, loop is not contractible")

    n, m = gamma.grid_size, gamma.dim
    samples = gamma.samples

    snaps = [samples.copy()]

    det = np.linalg.det(samples)
    det = det / np.abs(det)
    loop = PhaseLoop(det)
    if loop.under_resolved:
        raise RefinementNeeded("determinant loop under-resolved", axis="k2")
    inc = loop.increments()
    phi = np.empty(n)
    phi[0] = np.angle(det[0])
    phi[1:] = phi[0] + np.cumsum(inc[:-1])

    su_part = samples.copy()
    su_part[:, 0, :] = su_part[:, 0, :] * np.exp(-1j * phi)[:, None]

    peel_steps = max(1, int(np.ceil(np.max(np.abs(phi)) / _TARGET_SNAPSHOT_STEP)))
    for i in range(1, peel_steps + 1):
        s = i / peel_steps
        snap = su_part.copy()
        snap[:, 0, :] = snap[:, 0, :] * np.exp(1j * (1.0 - s) * phi)[:, None]
        snaps.append(snap)

    rng = np.random.default_rng(_CONTRACTION_SEED)
    if m >= 2:
        snaps.extend(_contract_special_level(su_part, rng, max_retries))
    homotopy = LoopHomotopy(np.stack(snaps))
    if homotopy.max_snapshot_step() > 1.0:
        raise ContractionFailure("internal step bound violated during contraction")
    if homotopy.unitarity_defect() > 1e-9:
        raise ContractionFailure("snapshot drifted off the unitary group")
    return homotopy


def connect_loops(gamma0: UnitaryLoop, gamma1: UnitaryLoop, *, n_steps=None) -> LoopHomotopy:
    """Homotopy between two loops of equal determinant winding.

    Built as H_s . gamma0 where H contracts gamma1 gamma0^{-1} run
    backwards, prefixed by a geodesic basepoint path from the identity to
    the contraction endpoint. The s = 0 and s = 1 snapshots are the given
    loops samplewise.
    """
    if not isinstance(gamma0, UnitaryLoop):
        gamma0 = UnitaryLoop(np.asarray(gamma0))
    if not isinstance(gamma1, UnitaryLoop):
        gamma1 = UnitaryLoop(np.asarray(gamma1))
    if gamma0.samples.shape != gamma1.samples.shape:
        raise InvalidInput("loops must share grid size and dimension")
    w0 = winding(gamma0.det_loop())
    w1 = winding(gamma1.det_loop())
    if w0 != w1:
        raise ObstructedLoop(f"determinant windings differ: {w0} vs {w1}")

    if np.array_equal(gamma0.samples, gamma1.samples):
        reps = 2 if n_steps is None else n_steps + 1
        return LoopHomotopy(np.repeat(gamma0.samples[None], reps, axis=0))

    quot = np.einsum(
        "jab,jcb->jac", gamma1.samples, gamma0.samples.conj()
    )  # gamma1 gamma0^{-1}
    contraction = contract_loop(UnitaryLoop(quot))
    const = contraction.snapshots[-1, 0]

    l_const = unitary_log(const)
    base_steps = max(1, int(np.ceil(op_norm(l_const) / _TARGET_SNAPSHOT_STEP)))

    snaps = [gamma0.samples.copy()]
    for i in range(1, base_steps + 1):
        ci = expm_i_hermitian((i / base_steps) * l_const)
        snaps.append(np.einsum("ab,jbc->jac", ci, gamma0.samples))
    for k in range(contraction.snapshots.shape[0] - 2, 0, -1):
        snaps.append(
            np.einsum("jab,jbc->jac", contraction.snapshots[k], gamma0.samples)
        )
    snaps.append(gamma1.samples.copy())

    homotopy = LoopHomotopy(np.stack(snaps))
    if n_steps is not None:
        homotopy = LoopHomotopy(
            np.concatenate(
                [
                    gamma0.samples[None],
                    homotopy.resample(n_steps).snapshots[1:-1],
                    gamma1.samples[None],
                ]
            )
        )
    return homotopy
