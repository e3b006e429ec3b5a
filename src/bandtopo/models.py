"""Model zoo producing projector fields: Haldane, Kane-Mele, random gapped
time-reversal symmetric Fourier-polynomial Hamiltonians, plus spectral
projection and gauge-transformation utilities.

Bloch Hamiltonians are stored as integer Fourier harmonics

    H(k) = sum_m A_m exp(i m . k),   A_{-m} = A_m^dagger,

so periodicity over the torus is exact by construction. Time-reversal
symmetry T H(k) T^{-1} = H(-k) is equivalent to the coefficient condition
J conj(A_m) J^{-1} = A_m for every m.

Both honeycomb models are expressed in a periodic gauge with
basis-independent harmonics; the dimerization choice is recorded in the
provenance string since a different unit-cell convention changes the model
by a (possibly symmetry-breaking) gauge transformation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    GapClosed,
    GenerationFailed,
    InvalidInput,
    ModelConstructionError,
)
from .trs import Grid2, ProjectionField, TRSStructure, canonical_j

GAP_MIN_DEFAULT = 1e-3
COEFF_TRS_TOL = 1e-12
_VALIDATION_GRID = Grid2(64, 64)


class BlochHamiltonian:
    """Hermitian Fourier polynomial over the 2-torus with optional TRS."""

    def __init__(self, dim, harmonics, trs=None, provenance="unspecified"):
        self.dim = int(dim)
        self.trs = trs
        self.provenance = str(provenance)
        clean = {}
        for m, a in harmonics.items():
            a = np.asarray(a, dtype=complex)
            if a.shape != (self.dim, self.dim):
                raise InvalidInput(f"harmonic {m} has shape {a.shape}")
            linalg.require_finite(a, f"harmonic {m}")
            if linalg.op_norm(a) > 1e-14:
                clean[(int(m[0]), int(m[1]))] = a
        self.harmonics = clean
        # the harmonics as arrays, in dict order, for evaluation
        self._orders = np.array(list(clean), dtype=float).reshape(-1, 2)
        self._coeffs = np.array(list(clean.values()), dtype=complex).reshape(
            -1, self.dim, self.dim
        )
        self._check_hermitian_pairing()
        if trs is not None:
            if trs.dim != self.dim:
                raise InvalidInput("TRS dimension mismatch")
            res = self.trs_coefficient_residual(trs)
            if res > COEFF_TRS_TOL:
                raise ModelConstructionError(
                    f"coefficient TRS residual {res:.3e} > {COEFF_TRS_TOL:.0e}"
                )

    def _check_hermitian_pairing(self):
        for m, a in self.harmonics.items():
            neg = (-m[0], -m[1])
            partner = self.harmonics.get(neg)
            if partner is None:
                raise InvalidInput(f"harmonic {m} lacks its Hermitian partner {neg}")
            if linalg.op_norm(partner - a.conj().T) > 1e-12:
                raise InvalidInput(f"A_{neg} != A_{m}^dagger")

    def trs_coefficient_residual(self, trs) -> float:
        res = 0.0
        for a in self.harmonics.values():
            res = max(res, linalg.op_norm(trs.conjugate(a) - a))
        return res

    @property
    def max_harmonic(self) -> int:
        if not self.harmonics:
            return 0
        return max(max(abs(m[0]), abs(m[1])) for m in self.harmonics)

    def at(self, k1, k2) -> np.ndarray:
        """H(k1, k2); array arguments broadcast to a (..., D, D) stack."""
        k1 = np.asarray(k1, dtype=float)[..., None]
        k2 = np.asarray(k2, dtype=float)[..., None]
        phases = np.exp(1j * (self._orders[:, 0] * k1 + self._orders[:, 1] * k2))
        # summed in dict order from a zero matrix, as term-by-term addition
        h = np.add.reduce(self._coeffs * phases[..., None, None], axis=-3, initial=0.0)
        return 0.5 * (h + h.conj().swapaxes(-1, -2))

    def __call__(self, k1, k2):
        return self.at(k1, k2)

    def spin_block(self, indices) -> "BlochHamiltonian":
        """Sub-Hamiltonian on a coordinate subset (used by self checks)."""
        idx = np.asarray(indices)
        harm = {m: a[np.ix_(idx, idx)] for m, a in self.harmonics.items()}
        return BlochHamiltonian(len(idx), harm, provenance=f"{self.provenance}[block]")


class _HarmonicBuilder:
    """Accumulates Hermitian trigonometric terms into integer harmonics."""

    def __init__(self, dim):
        self.dim = dim
        self.data = {}

    def _add(self, m, mat):
        key = (int(m[0]), int(m[1]))
        self.data[key] = self.data.get(key, np.zeros((self.dim, self.dim), complex)) + mat

    def add_pair(self, m, b):
        """H += B exp(i m.k) + B^dagger exp(-i m.k)."""
        b = np.asarray(b, dtype=complex)
        self._add(m, b)
        self._add((-m[0], -m[1]), b.conj().T)

    def add_const(self, c):
        c = np.asarray(c, dtype=complex)
        self._add((0, 0), 0.5 * (c + c.conj().T))

    def add_cos(self, m, c):
        """H += cos(m.k) C with Hermitian C."""
        self.add_pair(m, 0.5 * np.asarray(c, dtype=complex))

    def add_sin(self, m, c):
        """H += sin(m.k) C with Hermitian C."""
        self.add_pair(m, -0.5j * np.asarray(c, dtype=complex))

    def build(self, trs=None, provenance="built") -> BlochHamiltonian:
        return BlochHamiltonian(self.dim, self.data, trs=trs, provenance=provenance)


@dataclass(frozen=True)
class GapWindow:
    """Sampled spectral gap above the occupied group of bands.

    ``min_gap`` is the smallest gap met on the validation grid's nodes and on
    a 3x3 patch at half step around the smallest of them, at ``argmin_k``; it
    is not a bound on the gap between the samples.
    """

    occupied: int
    min_gap: float
    argmin_k: tuple

    def __post_init__(self):
        if self.min_gap <= 0:
            raise InvalidInput("gap window requires a positive gap")


def spectral_projector(
    hamiltonian: BlochHamiltonian,
    occupied: int,
    g_min=GAP_MIN_DEFAULT,
    validation_grid: Grid2 = _VALIDATION_GRID,
):
    """Projector field onto the lowest ``occupied`` bands, with gap audit.

    Occupied-band grouping replaces contour integration by eigenvalue
    counting below the gap; the two agree exactly whenever the gap is open.
    The gap is sampled on the nodes of ``validation_grid`` (64x64 by
    default) and on a 3x3 patch at half step around the smallest node value;
    a sampled gap below ``g_min`` raises GapClosed naming the worst sampled
    quasi-momentum. A gap that closes only between the samples goes unseen.
    """
    dim = hamiltonian.dim
    if not 0 < occupied < dim:
        raise InvalidInput("occupied count must lie strictly between 0 and dim")

    def gap_at(k1, k2):
        w = np.linalg.eigvalsh(hamiltonian.at(k1, k2))
        return w[occupied] - w[occupied - 1]

    best = (np.inf, (0.0, 0.0))
    for k1 in validation_grid.nodes1:
        for k2 in validation_grid.nodes2:
            g = gap_at(k1, k2)
            if g < best[0]:
                best = (g, (k1, k2))
    h1 = np.pi / validation_grid.n1
    h2 = np.pi / validation_grid.n2
    k1c, k2c = best[1]
    for d1 in (-h1, 0.0, h1):
        for d2 in (-h2, 0.0, h2):
            g = gap_at(k1c + d1, k2c + d2)
            if g < best[0]:
                best = (g, (k1c + d1, k2c + d2))
    min_gap, argmin = best
    if min_gap < g_min:
        raise GapClosed(argmin, min_gap)

    def evaluator(k1, k2):
        _, v = np.linalg.eigh(hamiltonian.at(k1, k2))
        occ = v[..., :occupied]
        return occ @ linalg.dagger(occ)

    field = _SpectralField(
        dim,
        occupied,
        evaluator,
        trs=hamiltonian.trs,
        provenance=f"lowest {occupied} bands of {hamiltonian.provenance}",
    )
    return field, GapWindow(occupied, float(min_gap), argmin)


class _SpectralField(ProjectionField):
    """Field of ``spectral_projector``: its evaluator takes whole stacks (one
    stacked ``BlochHamiltonian.at`` and one stacked ``eigh``)."""

    def sample_points(self, k1, k2) -> np.ndarray:
        return self._evaluate(k1, k2)


# --------------------------------------------------------------------------
# honeycomb models

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def haldane(t1, t2, phi, m_sub) -> BlochHamiltonian:
    """Two-band honeycomb model with complex next-nearest-neighbor hopping.

    Periodic gauge in reduced coordinates: nearest-neighbor amplitude
    t1 (1 + e^{i k1} + e^{i k2}) between the sublattices, staggered onsite
    m_sub, and second-neighbor loops t2 e^{+/- i phi} along (1,0), (-1,1),
    (0,-1). Breaks time reversal for phi not in pi Z.
    """
    if t1 == 0:
        raise InvalidInput("haldane model needs t1 != 0")
    b = _HarmonicBuilder(2)
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    e00 = np.diag([1.0, 0.0]).astype(complex)
    e11 = np.diag([0.0, 1.0]).astype(complex)

    b.add_const(m_sub * (e00 - e11))
    for m in ((0, 0), (1, 0), (0, 1)):
        b.add_pair(m, t1 * e01)
    for m in ((1, 0), (-1, 1), (0, -1)):
        b.add_pair(m, t2 * np.exp(1j * phi) * e00)
        b.add_pair(m, t2 * np.exp(-1j * phi) * e11)
    return b.build(
        provenance=f"haldane(t1={t1}, t2={t2}, phi={phi}, m_sub={m_sub})"
    )


# gamma matrices in sublattice (x) spin order: (A up, A down, B up, B down)
_G1 = np.kron(_SX, _ID2)
_G2 = np.kron(_SZ, _ID2)
_G3 = np.kron(_SY, _SX)
_G4 = np.kron(_SY, _SY)
_G5 = np.kron(_SY, _SZ)
_G12 = -1j * _G1 @ _G2
_G15 = -1j * _G1 @ _G5
_G23 = -1j * _G2 @ _G3
_G24 = -1j * _G2 @ _G4

KM_J = np.kron(_ID2, np.array([[0, -1], [1, 0]], dtype=complex))

_km_reference_checked = False


def kane_mele(t, lambda_so, lambda_r, lambda_v) -> BlochHamiltonian:
    """Four-band honeycomb model with intrinsic and Rashba spin-orbit terms.

    Five-gamma-matrix parameterization on the basis (A up, A down, B up,
    B down) with J = Id_2 (x) [[0,-1],[1,0]]. Construction is guarded by
    two build-time self checks: the coefficient TRS condition on the actual
    parameters, and (once per process) opposite spin-sector Chern numbers
    of the lambda_r = 0 reference point, which would catch any transcription
    slip in the coefficient table.
    """
    if t == 0:
        raise InvalidInput("kane_mele model needs t != 0")
    model = _kane_mele_terms(t, lambda_so, lambda_r, lambda_v).build(
        trs=TRSStructure(KM_J),
        provenance=(
            f"kane_mele(t={t}, lambda_so={lambda_so}, "
            f"lambda_r={lambda_r}, lambda_v={lambda_v})"
        ),
    )
    _kane_mele_reference_check()
    return model


def _kane_mele_terms(t, lambda_so, lambda_r, lambda_v):
    """The coefficient table of kane_mele, accumulated into harmonics."""
    b = _HarmonicBuilder(4)
    b.add_const(t * _G1 + lambda_v * _G2 + lambda_r * _G3)
    b.add_cos((1, 0), t * _G1)
    b.add_cos((0, 1), t * _G1)
    b.add_sin((1, 0), -t * _G12)
    b.add_sin((0, 1), -t * _G12)
    b.add_sin((1, -1), 2.0 * lambda_so * _G15)
    b.add_sin((1, 0), -2.0 * lambda_so * _G15)
    b.add_sin((0, 1), 2.0 * lambda_so * _G15)
    b.add_cos((1, 0), -0.5 * lambda_r * _G3)
    b.add_cos((0, 1), -0.5 * lambda_r * _G3)
    b.add_cos((1, 0), 0.5 * np.sqrt(3.0) * lambda_r * _G4)
    b.add_cos((0, 1), -0.5 * np.sqrt(3.0) * lambda_r * _G4)
    b.add_sin((1, 0), -0.5 * lambda_r * _G23)
    b.add_sin((0, 1), -0.5 * lambda_r * _G23)
    b.add_sin((1, 0), 0.5 * np.sqrt(3.0) * lambda_r * _G24)
    b.add_sin((0, 1), -0.5 * np.sqrt(3.0) * lambda_r * _G24)
    return b


def _kane_mele_reference_check():
    """Opposite spin-sector Chern numbers at a gapped lambda_r = 0 point."""
    global _km_reference_checked
    if _km_reference_checked:
        return
    _km_reference_checked = True  # set first; a failure below still raises
    from .invariants import fhs_chern

    reference = _kane_mele_terms(1.0, 0.06, 0.0, 0.1).build(
        provenance="kane_mele reference (lambda_r = 0)"
    )

    up, down = [0, 2], [1, 3]
    off = np.zeros((4, 4), dtype=bool)
    off[np.ix_(up, down)] = True
    off[np.ix_(down, up)] = True
    for k in ((0.3, -1.1), (2.0, 0.7)):
        h = reference.at(*k)
        if np.max(np.abs(h[off])) > 1e-12:
            raise ModelConstructionError(
                "kane_mele reference fails spin-sector decoupling at lambda_r = 0"
            )
    cherns = []
    for idx in (up, down):
        block = reference.spin_block(idx)
        field, _ = spectral_projector(block, 1, validation_grid=Grid2(24, 24))
        cherns.append(fhs_chern(field, Grid2(24, 24)))
    if abs(cherns[0]) != 1 or cherns[0] != -cherns[1]:
        raise ModelConstructionError(
            f"kane_mele reference spin-sector Chern numbers {cherns} "
            "are not opposite unit values"
        )


# --------------------------------------------------------------------------
# random gapped models

def _random_hermitian(rng, d, scale):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (z + z.conj().T)


def _random_full(rng, d, scale):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def _half_lattice(m_max):
    """Canonical representatives of the +-m harmonic pairs."""
    out = []
    for m1 in range(-m_max, m_max + 1):
        for m2 in range(-m_max, m_max + 1):
            if (m1, m2) == (0, 0):
                continue
            if m1 > 0 or (m1 == 0 and m2 > 0):
                out.append((m1, m2))
    return sorted(out)


def _draw_hamiltonian(rng, dim, m_max, trs, dispersion):
    # default dispersion kept gentle: chained-transport gauges accumulate a
    # k2 twist of order pi * ||d^2 P||, and downstream gluing constructions
    # must be able to resolve it on practical grids
    builder = _HarmonicBuilder(dim)
    builder.add_const(_random_hermitian(rng, dim, 2.0))
    for m in _half_lattice(m_max):
        scale = dispersion / (1 + abs(m[0]) + abs(m[1])) ** 2
        builder.add_pair(m, _random_full(rng, dim, scale))
    data = builder.data
    if trs is not None:
        data = {
            m: 0.5 * (a + trs.conjugate(a)) for m, a in data.items()
        }
    return BlochHamiltonian(dim, data, trs=trs)


def random_trs_hamiltonian(
    dim, rank, m_max, seed, g_min=GAP_MIN_DEFAULT, max_draws=200, j=None, dispersion=0.15
):
    """Seeded gapped time-reversal symmetric Hamiltonian plus its projector field.

    Gaussian coefficients are Hermitian-paired by construction and averaged
    with their T-conjugates; draws are rejected until the lowest ``rank``
    bands carry a certified gap >= g_min. Identical seeds reproduce the
    coefficient stream bit for bit. ``j`` overrides the canonical
    time-reversal unitary (useful to share a T with another model).
    """
    if dim % 2 != 0 or rank % 2 != 0:
        raise InvalidInput("TRS models need even dim and even rank")
    if dim < rank + 2:
        raise InvalidInput("need dim >= rank + 2")
    trs = TRSStructure(canonical_j(dim // 2) if j is None else j)
    if trs.dim != dim:
        raise InvalidInput("time-reversal unitary has the wrong dimension")
    rng = np.random.default_rng(seed)
    for draw in range(max_draws):
        bloch = _draw_hamiltonian(rng, dim, m_max, trs, dispersion)
        bloch = BlochHamiltonian(
            bloch.dim,
            bloch.harmonics,
            trs=trs,
            provenance=f"random_trs(dim={dim}, rank={rank}, M={m_max}, seed={seed}, draw={draw})",
        )
        try:
            field, window = spectral_projector(bloch, rank, g_min=g_min)
        except GapClosed:
            continue
        return bloch, field, window
    raise GenerationFailed(f"no gapped draw in {max_draws} attempts (seed {seed})")


def random_gapped_hamiltonian(
    dim, rank, m_max, seed, g_min=GAP_MIN_DEFAULT, max_draws=200, dispersion=0.15
):
    """Non-symmetric counterpart of random_trs_hamiltonian (fuzzing input)."""
    if not 0 < rank < dim:
        raise InvalidInput("rank must lie strictly between 0 and dim")
    rng = np.random.default_rng(seed)
    for draw in range(max_draws):
        bloch = _draw_hamiltonian(rng, dim, m_max, None, dispersion)
        bloch = BlochHamiltonian(
            bloch.dim,
            bloch.harmonics,
            provenance=f"random(dim={dim}, rank={rank}, M={m_max}, seed={seed}, draw={draw})",
        )
        try:
            field, window = spectral_projector(bloch, rank, g_min=g_min)
        except GapClosed:
            continue
        return bloch, field, window
    raise GenerationFailed(f"no gapped draw in {max_draws} attempts (seed {seed})")


# --------------------------------------------------------------------------
# gauge transformations

class GaugeMap:
    """Periodic unitary-valued map on the torus, W(k) = exp(i X(k))."""

    def __init__(self, dim, evaluator, symmetric=False, provenance="gauge"):
        self.dim = int(dim)
        self.symmetric = bool(symmetric)
        self.provenance = provenance
        self._evaluator = evaluator

    def at(self, k1, k2):
        return np.asarray(self._evaluator(k1, k2), dtype=complex)

    def __call__(self, k1, k2):
        return self.at(k1, k2)


def random_gauge_map(dim, seed, symmetric=False, trs=None, m_max=1, scale=0.5):
    """Random smooth gauge map built as exp(i X(k)) with X a Hermitian
    Fourier polynomial; for the symmetric variant the generator satisfies
    T X(k) T^{-1} = -X(-k) so that T W(k) T^{-1} = W(-k)."""
    if symmetric and trs is None:
        raise InvalidInput("symmetric gauge maps need a TRS structure")
    rng = np.random.default_rng(seed)
    builder = _HarmonicBuilder(dim)
    builder.add_const(_random_hermitian(rng, dim, scale))
    for m in _half_lattice(m_max):
        builder.add_pair(m, _random_full(rng, dim, scale / 2.0))
    data = builder.data
    if symmetric:
        data = {m: 0.5 * (a - trs.conjugate(a)) for m, a in data.items()}
    generator = BlochHamiltonian(dim, data, provenance="gauge generator")

    def evaluator(k1, k2):
        return linalg.expm_i_hermitian(generator.at(k1, k2))

    return GaugeMap(dim, evaluator, symmetric=symmetric, provenance=f"random_gauge(seed={seed})")


def gauge_transform(field: ProjectionField, gauge, symmetric=False) -> ProjectionField:
    """The field k -> W(k) P(k) W(k)^{-1}.

    W must be periodic and unitary within 1e-10 (checked on a sample grid),
    and TRS-equivariant within 1e-8 when ``symmetric``; the TRS certificate
    is carried over exactly when the transformation is symmetric.
    """
    w = gauge if isinstance(gauge, GaugeMap) else GaugeMap(field.dim, gauge, symmetric)
    if w.dim != field.dim:
        raise InvalidInput("gauge dimension mismatch")
    probe = Grid2(8, 8)
    for k1 in probe.nodes1[::2]:
        for k2 in probe.nodes2[::2]:
            u = w.at(k1, k2)
            if linalg.unitarity_defect(u) > 1e-10:
                raise InvalidInput("gauge map is not unitary within 1e-10")
            if linalg.op_norm(w.at(k1 + 2 * np.pi, k2) - u) > 1e-9 or linalg.op_norm(
                w.at(k1, k2 + 2 * np.pi) - u
            ) > 1e-9:
                raise InvalidInput("gauge map is not periodic")
            if symmetric:
                if field.trs is None:
                    raise InvalidInput("symmetric transform needs a TRS field")
                res = linalg.op_norm(field.trs.conjugate(u) - w.at(-k1, -k2))
                if res > 1e-8:
                    raise InvalidInput(
                        f"gauge map breaks time reversal: residual {res:.3e}"
                    )

    def evaluator(k1, k2):
        u = w.at(k1, k2)
        return u @ field.at(k1, k2) @ u.conj().T

    return ProjectionField(
        field.dim,
        field.rank,
        evaluator,
        trs=field.trs if symmetric else None,
        provenance=f"{w.provenance} applied to ({field.provenance})",
    )


# --------------------------------------------------------------------------
# harmonic-coefficient files

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_pairs(a: np.ndarray) -> str:
    pairs = ", ".join(f"[{_fmt(z.real)}, {_fmt(z.imag)}]" for z in a.ravel())
    return f"[{pairs}]"


def save_bloch(h: BlochHamiltonian, path):
    """Write the harmonic-coefficient file (JSON, 17 significant digits)."""
    lines = ["{", f'  "dimension": {h.dim},']
    if h.trs is not None:
        lines.append(f'  "trs_j": {_matrix_pairs(h.trs.j)},')
    lines.append('  "harmonics": [')
    entries = []
    for m in sorted(h.harmonics):
        entries.append(
            f'    {{"m": [{m[0]}, {m[1]}], "A": {_matrix_pairs(h.harmonics[m])}}}'
        )
    lines.append(",\n".join(entries))
    lines.append("  ]")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _pairs_matrix(pairs, dim) -> np.ndarray:
    flat = np.array([complex(p[0], p[1]) for p in pairs])
    if flat.size != dim * dim:
        raise InvalidInput(f"expected {dim * dim} complex pairs, got {flat.size}")
    return flat.reshape(dim, dim)


def load_bloch(path) -> BlochHamiltonian:
    """Read a harmonic-coefficient file back into a BlochHamiltonian."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    dim = int(doc["dimension"])
    trs = None
    if "trs_j" in doc and doc["trs_j"] is not None:
        trs = TRSStructure(_pairs_matrix(doc["trs_j"], dim))
    harmonics = {}
    for entry in doc["harmonics"]:
        m = (int(entry["m"][0]), int(entry["m"][1]))
        harmonics[m] = _pairs_matrix(entry["A"], dim)
    return BlochHamiltonian(dim, harmonics, trs=trs, provenance=f"file:{path}")
