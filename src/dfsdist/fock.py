"""Sparse multimode bosonic state algebra.

Optical modes are labelled by (spatial, polarization, temporal) triples and a
state is a sparse map from occupation tuples to complex amplitudes, truncated
at a total photon number.  Linear-optical elements act by substituting
creation operators according to an isometric mode matrix; photon loss is
handled by dilation onto fresh loss modes and incoherent reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

H = "H"
V = "V"
MATCHED = "matched"
ORTHOGONAL = "orthogonal"
POLARIZATIONS = (H, V)

# Amplitudes below this magnitude are dropped from sparse states.
PRUNE_THRESHOLD = 1e-15
ISOMETRY_TOL = 1e-12


class ConfigurationError(ValueError):
    """Bad registry/experiment configuration (duplicate labels, unknown modes)."""


class ValidationError(ValueError):
    """A physical-contract violation (non-isometric matrix, occupied ancilla)."""


class UndefinedFidelityError(ValueError):
    """Fidelity requested for a zero-trace density matrix."""


class Mode(NamedTuple):
    spatial: str
    pol: str
    temporal: str = MATCHED


class ModeRegistry:
    """Ordered collection of modes; indices are stable for the registry lifetime."""

    def __init__(self, modes: Sequence[Mode]):
        modes = tuple(Mode(*m) for m in modes)
        if len(set(modes)) != len(modes):
            raise ConfigurationError("duplicate mode triple in registry")
        self.modes = modes
        self._index = {m: i for i, m in enumerate(modes)}
        self._group_cache: dict[tuple, list[int]] = {}

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def index(self, mode: Mode) -> int:
        mode = Mode(*mode)
        try:
            return self._index[mode]
        except KeyError:
            raise ConfigurationError(f"mode {mode} not in registry") from None

    def indices(self, spatial: str, pol: str | None = None,
                temporal: str | None = None) -> list[int]:
        """Indices of all modes with the given spatial label (optionally filtered)."""
        key = (spatial, pol, temporal)
        cached = self._group_cache.get(key)
        if cached is not None:
            return cached
        out = [i for i, m in enumerate(self.modes)
               if m.spatial == spatial
               and (pol is None or m.pol == pol)
               and (temporal is None or m.temporal == temporal)]
        if not out:
            raise ConfigurationError(f"no modes with spatial label {spatial!r}")
        self._group_cache[key] = out
        return out

    def temporals(self, spatial: str) -> tuple[str, ...]:
        seen: list[str] = []
        for m in self.modes:
            if m.spatial == spatial and m.temporal not in seen:
                seen.append(m.temporal)
        if not seen:
            raise ConfigurationError(f"no modes with spatial label {spatial!r}")
        return tuple(seen)

    def vacuum_occupation(self) -> tuple[int, ...]:
        return (0,) * len(self.modes)


def make_registry(spec: Iterable[str | tuple[str, bool]]) -> ModeRegistry:
    """Build a registry from spatial labels, optionally with temporal twins.

    Each item is either a plain label (H and V modes, matched component only)
    or a ``(label, split)`` pair where ``split=True`` adds orthogonal temporal
    twin modes for both polarizations.
    """
    modes: list[Mode] = []
    seen: set[str] = set()
    for item in spec:
        label, split = (item, False) if isinstance(item, str) else item
        if label in seen:
            raise ConfigurationError(f"duplicate spatial label {label!r}")
        seen.add(label)
        for pol in POLARIZATIONS:
            modes.append(Mode(label, pol, MATCHED))
            if split:
                modes.append(Mode(label, pol, ORTHOGONAL))
    return ModeRegistry(modes)


class FockStateVector:
    """Sparse pure state: occupation tuple -> complex amplitude, total <= cutoff.

    Instances are treated as immutable; all operations return new states.
    ``truncated_weight`` accumulates squared amplitude discarded by cutoff
    truncation anywhere along the construction pipeline.
    """

    __slots__ = ("registry", "cutoff", "terms", "truncated_weight")

    def __init__(self, registry: ModeRegistry, cutoff: int,
                 terms: Mapping[tuple[int, ...], complex],
                 truncated_weight: float = 0.0):
        if cutoff < 0:
            raise ValidationError("cutoff must be >= 0")
        pruned: dict[tuple[int, ...], complex] = {}
        for occ, amp in terms.items():
            if len(occ) != registry.n_modes:
                raise ValidationError("occupation tuple length != registry size")
            if sum(occ) > cutoff:
                raise ValidationError(
                    f"occupation {occ} exceeds cutoff {cutoff}; truncate upstream")
            if abs(amp) >= PRUNE_THRESHOLD:
                pruned[tuple(occ)] = complex(amp)
        self.registry = registry
        self.cutoff = cutoff
        self.terms = pruned
        self.truncated_weight = float(truncated_weight)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def normalized(self) -> "FockStateVector":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise ValidationError("cannot normalize a zero state")
        s = 1.0 / math.sqrt(n2)
        return FockStateVector(self.registry, self.cutoff,
                               {occ: a * s for occ, a in self.terms.items()},
                               self.truncated_weight)

    def occupied_indices(self) -> set[int]:
        out: set[int] = set()
        for occ in self.terms:
            out.update(i for i, n in enumerate(occ) if n)
        return out

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.terms.get(tuple(occ), 0.0 + 0.0j)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FockStateVector(n_modes={self.registry.n_modes}, "
                f"terms={len(self.terms)}, norm2={self.norm_squared():.6g})")


def inner_product(a: FockStateVector, b: FockStateVector) -> complex:
    """<a|b> over the shared occupation basis."""
    total = 0.0 + 0.0j
    for occ, amp in a.terms.items():
        other = b.terms.get(occ)
        if other is not None:
            total += np.conj(amp) * other
    return complex(total)


def states_allclose(a: FockStateVector, b: FockStateVector, tol: float = 1e-10,
                    up_to_global_phase: bool = False) -> bool:
    if up_to_global_phase:
        ov = inner_product(a, b)
        na, nb = a.norm_squared(), b.norm_squared()
        return abs(abs(ov) ** 2 - na * nb) <= tol and abs(na - nb) <= tol
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= tol for k in keys)


@dataclass(frozen=True)
class ModeTransform:
    """Isometric linear map on creation operators over a subset of modes.

    ``matrix[j, i]`` is the amplitude with which input mode ``input_indices[i]``
    feeds output mode ``output_indices[j]``.  M must satisfy M^dag M = 1.
    """

    registry: ModeRegistry
    input_indices: tuple[int, ...]
    output_indices: tuple[int, ...]
    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        n_out, n_in = mat.shape
        if n_in != len(self.input_indices) or n_out != len(self.output_indices):
            raise ValidationError("matrix shape does not match mode index lists")
        if len(set(self.input_indices)) != n_in or len(set(self.output_indices)) != n_out:
            raise ValidationError("repeated mode index in transform")
        n = self.registry.n_modes
        for i in (*self.input_indices, *self.output_indices):
            if not 0 <= i < n:
                raise ConfigurationError(f"mode index {i} outside registry")
        gram = mat.conj().T @ mat
        if not np.allclose(gram, np.eye(n_in), atol=ISOMETRY_TOL):
            raise ValidationError(f"transform {self.name or mat!r} is not an isometry")


_FACT_SQRT = [math.sqrt(math.factorial(n)) for n in range(40)]


def apply_transform(state: FockStateVector, t: ModeTransform) -> FockStateVector:
    """Rewrite each term by substituting creation operators per t.matrix.

    Output-only modes must be unoccupied (fresh ancillas); terms whose total
    photon number would exceed the cutoff are dropped and their squared weight
    recorded on the returned state.
    """
    if t.registry is not state.registry and t.registry.modes != state.registry.modes:
        raise ConfigurationError("transform registry differs from state registry")
    fresh = [i for i in t.output_indices if i not in t.input_indices]
    in_idx = t.input_indices
    out_idx = t.output_indices
    n_out = len(out_idx)
    col_entries = [[(j, t.matrix[j, i]) for j in range(n_out)
                    if abs(t.matrix[j, i]) > 0.0] for i in range(len(in_idx))]

    accum: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.terms.items():
        for i in fresh:
            if occ[i]:
                raise ValidationError(
                    f"output mode {state.registry.modes[i]} must start in vacuum")
        ks = [occ[i] for i in in_idx]
        if not any(ks):
            accum[occ] = accum.get(occ, 0.0) + amp
            continue
        base = list(occ)
        for i in in_idx:
            base[i] = 0
        scale = amp
        for k in ks:
            scale /= _FACT_SQRT[k]
        # Polynomial over created output occupations.
        poly: dict[tuple[int, ...], complex] = {(0,) * n_out: scale}
        for i, k in enumerate(ks):
            entries = col_entries[i]
            for _ in range(k):
                nxt: dict[tuple[int, ...], complex] = {}
                for part, coeff in poly.items():
                    for j, mij in entries:
                        key = part[:j] + (part[j] + 1,) + part[j + 1:]
                        nxt[key] = nxt.get(key, 0.0) + coeff * mij
                poly = nxt
        for part, coeff in poly.items():
            if abs(coeff) < PRUNE_THRESHOLD:
                continue
            new_occ = list(base)
            bose = 1.0
            for j, kj in enumerate(part):
                if kj:
                    new_occ[out_idx[j]] = kj
                    bose *= _FACT_SQRT[kj]
            key = tuple(new_occ)
            accum[key] = accum.get(key, 0.0) + coeff * bose

    kept: dict[tuple[int, ...], complex] = {}
    dropped = 0.0
    for occ, amp in accum.items():
        if sum(occ) > state.cutoff:
            dropped += abs(amp) ** 2
        elif abs(amp) >= PRUNE_THRESHOLD:
            kept[occ] = amp
    return FockStateVector(state.registry, state.cutoff, kept,
                           state.truncated_weight + dropped)


def tensor(a: FockStateVector, b: FockStateVector) -> FockStateVector:
    """Product state of two states on the same registry with disjoint support."""
    if a.registry.modes != b.registry.modes:
        raise ConfigurationError("tensor requires a shared registry")
    if a.cutoff != b.cutoff:
        raise ValidationError("tensor requires the same cutoff policy")
    if a.occupied_indices() & b.occupied_indices():
        raise ValidationError("tensor factors occupy overlapping modes")
    out: dict[tuple[int, ...], complex] = {}
    dropped = 0.0
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            occ = tuple(na + nb for na, nb in zip(occ_a, occ_b))
            amp = amp_a * amp_b
            if sum(occ) > a.cutoff:
                dropped += abs(amp) ** 2
            else:
                out[occ] = out.get(occ, 0.0) + amp
    return FockStateVector(a.registry, a.cutoff, out,
                           a.truncated_weight + b.truncated_weight + dropped)


def project_occupation(state: FockStateVector, mode: Mode | int,
                       n: int) -> FockStateVector:
    """Unnormalized projection onto exactly n photons in one mode."""
    idx = mode if isinstance(mode, int) else state.registry.index(mode)
    if not 0 <= idx < state.registry.n_modes:
        raise ConfigurationError(f"mode index {idx} outside registry")
    if n > state.cutoff:
        raise ValidationError("projection occupation exceeds cutoff")
    kept = {occ: amp for occ, amp in state.terms.items() if occ[idx] == n}
    return FockStateVector(state.registry, state.cutoff, kept,
                           state.truncated_weight)


@dataclass(frozen=True)
class PolarizationDensityMatrix:
    """4x4 polarization density matrix of two spatial modes, basis HH,HV,VH,VV.

    The trace records the (unnormalized) weight of the represented sector,
    e.g. a post-selection probability.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise ValidationError("polarization density matrix must be 4x4")
        scale = max(float(np.abs(mat).max()), 1.0)
        if not np.allclose(mat, mat.conj().T, atol=1e-12 * scale):
            raise ValidationError("density matrix is not Hermitian")
        tr = float(np.real(np.trace(mat)))
        if tr > 1.0 + 1e-9:
            raise ValidationError(f"density matrix trace {tr} exceeds 1")
        eig = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        if eig.min() < -1e-10 * scale:
            raise ValidationError("density matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def normalized(self) -> "PolarizationDensityMatrix":
        tr = self.trace
        if tr <= 1e-300:
            raise UndefinedFidelityError("cannot normalize a zero-trace matrix")
        return PolarizationDensityMatrix(self.matrix / tr)


PHI_PLUS = np.zeros(4, dtype=complex)
PHI_PLUS[0] = PHI_PLUS[3] = 1.0 / math.sqrt(2.0)


def reduce_to_polarization_dm(state: FockStateVector, spatial_a: str,
                              spatial_b: str) -> PolarizationDensityMatrix:
    """Reduce to the two-qubit polarization sector of two spatial labels.

    Keeps only terms with exactly one photon in each label, traces out the
    temporal component (coherence survives only between equal temporal slots)
    and all remaining modes by incoherent summation.  The trace of the result
    is the probability of that sector for a normalized input.
    """
    reg = state.registry
    idx_a = {i: (reg.modes[i].pol, reg.modes[i].temporal)
             for i in reg.indices(spatial_a)}
    idx_b = {i: (reg.modes[i].pol, reg.modes[i].temporal)
             for i in reg.indices(spatial_b)}
    rest = [i for i in range(reg.n_modes) if i not in idx_a and i not in idx_b]

    groups: dict[tuple, np.ndarray] = {}
    for occ, amp in state.terms.items():
        na = sum(occ[i] for i in idx_a)
        nb = sum(occ[i] for i in idx_b)
        if na != 1 or nb != 1:
            continue
        ia = next(i for i in idx_a if occ[i])
        ib = next(i for i in idx_b if occ[i])
        pol_a, tau_a = idx_a[ia]
        pol_b, tau_b = idx_b[ib]
        key = (tuple(occ[i] for i in rest), tau_a, tau_b)
        vec = groups.setdefault(key, np.zeros(4, dtype=complex))
        vec[2 * (pol_a == V) + (pol_b == V)] += amp
    rho = np.zeros((4, 4), dtype=complex)
    for vec in groups.values():
        rho += np.outer(vec, vec.conj())
    return PolarizationDensityMatrix(rho)


def fidelity_to_phi_plus(dm: PolarizationDensityMatrix) -> float:
    """<phi+|rho|phi+> for the (H H + V V)/sqrt(2) Bell state."""
    tr = dm.trace
    if tr <= 1e-300:
        raise UndefinedFidelityError("fidelity undefined for zero-trace matrix")
    val = float(np.real(PHI_PLUS.conj() @ dm.matrix @ PHI_PLUS)) / tr
    return min(max(val, 0.0), 1.0)


def trace_distance(a: PolarizationDensityMatrix | np.ndarray,
                   b: PolarizationDensityMatrix | np.ndarray) -> float:
    ma = a.matrix if isinstance(a, PolarizationDensityMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, PolarizationDensityMatrix) else np.asarray(b)
    eig = np.linalg.eigvalsh(ma - mb)
    return 0.5 * float(np.abs(eig).sum())
