"""Sparse multimode bosonic state algebra.

Optical modes are labelled by (spatial, polarization, temporal) triples.  A
state is a sparse set of terms held as arrays, an integer occupation matrix
(terms x modes), a complex amplitude and an integer label per term,
truncated at a total photon number.  Linear-optical elements act by substituting
creation operators according to an isometric mode matrix; photon loss is
handled by dilation onto fresh loss modes and incoherent reduction.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

H = "H"
V = "V"
MATCHED = "matched"
ORTHOGONAL = "orthogonal"
POLARIZATIONS = (H, V)

# Amplitudes below this magnitude are dropped from sparse states.
PRUNE_THRESHOLD = 1e-15
ISOMETRY_TOL = 1e-12
# Occupations are int16, which holds tensor's row sums (<= 2 * cutoff).
MAX_CUTOFF = 39  # the largest occupation _FACT_SQRT tabulates


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


class _Terms(Mapping):
    """Occupation tuple -> amplitude view of a state's arrays.

    The dict behind it is built on the first lookup; its length needs none.
    """

    __slots__ = ("_occupations", "_amplitudes", "_dict")

    def __init__(self, occupations: np.ndarray, amplitudes: np.ndarray):
        self._occupations = occupations
        self._amplitudes = amplitudes
        self._dict: dict | None = None

    def _items(self) -> dict[tuple[int, ...], complex]:
        if self._dict is None:
            items = dict(zip(map(tuple, self._occupations.tolist()),
                             self._amplitudes.tolist()))
            if len(items) < len(self._amplitudes):
                raise ValidationError("an occupation repeats under two labels")
            self._dict = items
        return self._dict

    def __len__(self) -> int:
        return len(self._amplitudes)

    def __getitem__(self, occ: tuple[int, ...]) -> complex:
        return self._items()[occ]

    def __iter__(self):
        return iter(self._items())


class FockStateVector:
    """Sparse pure state with total photon number <= cutoff.

    ``occupations`` holds one int16 row of photon numbers per term (terms x
    modes), ``amplitudes`` each term's complex amplitude and ``labels`` its
    int64 label, by default 0; rows are distinct per (occupation, label)
    and the arrays are read-only.  Terms with different labels never
    interfere: transforms keep them apart, and click statistics sum over
    them.  ``terms`` is the same state as a read-only occupation tuple ->
    amplitude mapping.  Instances are immutable; all operations return new
    states.  ``truncated_weight`` accumulates squared amplitude discarded by
    cutoff truncation anywhere along the pipeline.
    """

    __slots__ = ("registry", "cutoff", "occupations", "amplitudes", "labels",
                 "terms", "truncated_weight")

    def __init__(self, registry: ModeRegistry, cutoff: int,
                 terms: Mapping[tuple[int, ...], complex],
                 truncated_weight: float = 0.0):
        try:
            occ = np.array(list(terms), dtype=np.int64).reshape(
                len(terms), registry.n_modes)
        except ValueError:
            raise ValidationError(
                "occupation tuple length != registry size") from None
        self._assign(registry, cutoff, occ,
                     np.array(list(terms.values()), dtype=complex),
                     truncated_weight, None)

    @classmethod
    def from_arrays(cls, registry: ModeRegistry, cutoff: int,
                    occupations: np.ndarray, amplitudes: np.ndarray,
                    truncated_weight: float = 0.0,
                    labels: np.ndarray | None = None) -> "FockStateVector":
        """A state from rows distinct per (occupation, label), their
        amplitudes and labels (by default 0).  Occupations are checked
        against the cutoff as given, before int16 storage could wrap them."""
        occ = np.asarray(occupations)
        if occ.ndim != 2 or occ.shape[1] != registry.n_modes:
            raise ValidationError("occupation tuple length != registry size")
        state = cls.__new__(cls)
        state._assign(registry, cutoff, occ,
                      np.asarray(amplitudes, dtype=complex), truncated_weight,
                      labels)
        return state

    def _assign(self, registry, cutoff, occ, amp, truncated_weight, labels):
        """Validate against the cutoff and drop amplitudes below
        PRUNE_THRESHOLD."""
        if not 0 <= cutoff <= MAX_CUTOFF:
            raise ValidationError(f"cutoff must lie in [0, {MAX_CUTOFF}]")
        over = occ.sum(axis=1) > cutoff
        if over.any():
            raise ValidationError(
                f"occupation {tuple(occ[over.argmax()].tolist())} exceeds "
                f"cutoff {cutoff}; truncate upstream")
        labels = np.zeros(len(amp), np.int64) if labels is None else labels
        keep = np.hypot(amp.real, amp.imag) >= PRUNE_THRESHOLD
        self.occupations = occ[keep].astype(np.int16, copy=False)
        self.amplitudes = amp[keep]
        self.labels = np.asarray(labels, dtype=np.int64)[keep]
        for arr in (self.occupations, self.amplitudes, self.labels):
            arr.flags.writeable = False
        self.terms = _Terms(self.occupations, self.amplitudes)
        self.registry = registry
        self.cutoff = cutoff
        self.truncated_weight = float(truncated_weight)

    def norm_squared(self) -> float:
        return sum(_weights(self.amplitudes).tolist())

    def normalized(self) -> "FockStateVector":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise ValidationError("cannot normalize a zero state")
        return FockStateVector.from_arrays(
            self.registry, self.cutoff, self.occupations,
            self.amplitudes * (1.0 / math.sqrt(n2)), self.truncated_weight,
            self.labels)

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.terms.get(tuple(occ), 0.0 + 0.0j)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FockStateVector(n_modes={self.registry.n_modes}, "
                f"terms={len(self.terms)}, norm2={self.norm_squared():.6g})")


@functools.lru_cache(maxsize=None)
def _rank_table(n_cols: int, cutoff: int) -> np.ndarray:
    """table[i, p]: how many rows over the columns i.. total at most
    cutoff - p - 1, or 0 where that is negative."""
    table = np.array([[math.comb(n_cols - i + cutoff - p - 1, n_cols - i)
                       if p < cutoff else 0 for p in range(cutoff + 1)]
                      for i in range(n_cols)], dtype=np.int64)
    table = table.reshape(n_cols, cutoff + 1)
    table.flags.writeable = False
    return table


def _row_keys(rows: np.ndarray, cutoff: int) -> np.ndarray:
    """Distinct integer keys for distinct occupation rows totalling at most
    ``cutoff``, below C(columns + cutoff, cutoff).

    A key is the row's rank among all such rows, up to sign and offset,
    over the columns not empty in every row.  A mixed-radix key over every
    mode would overflow int64 (24 modes at cutoff 6 need 7^24 keys).
    """
    rows = rows[:, rows.any(axis=0)]
    key = np.zeros(len(rows), dtype=np.int64)
    filled = np.zeros(len(rows), dtype=np.int64)
    for col, weights in zip(rows.T, _rank_table(rows.shape[1], cutoff)):
        filled += col
        key += weights[filled]
    return key


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The group of each key, groups numbered in order of first appearance,
    and the index at which each group first appears."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    ids = np.empty_like(order)
    ids[order] = np.arange(len(order))
    return ids[inverse], first[order]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


# numpy's complex loops fuse multiplies and adds and use their own abs, which
# moves last bits against scalar arithmetic; these keep its rounding, which
# the committed results/ are pinned to byte for byte.
def _cmul(z, c) -> np.ndarray:
    """z * c elementwise, rounded as scalar complex arithmetic rounds it."""
    return _complex(z.real * c.real - z.imag * c.imag,
                    z.real * c.imag + z.imag * c.real)


def _summed(ids: np.ndarray, n: int, amplitudes: np.ndarray) -> np.ndarray:
    """The amplitudes summed into n groups, each in array order."""
    return _complex(np.bincount(ids, amplitudes.real, n),
                    np.bincount(ids, amplitudes.imag, n))


def _merge_labels(state: FockStateVector,
                  coeffs: Sequence[np.ndarray]) -> list[FockStateVector]:
    """The unlabelled state sum_t c[t] |row t> for each vector c of
    ``coeffs``, equal occupations summed across labels in order of first
    appearance."""
    ids, first = _first_appearance(_row_keys(state.occupations, state.cutoff))
    return [FockStateVector.from_arrays(
        state.registry, state.cutoff, state.occupations[first],
        _summed(ids, len(first), _cmul(state.amplitudes, c)),
        state.truncated_weight) for c in coeffs]


def _weights(amplitudes: np.ndarray) -> np.ndarray:
    """abs(a) ** 2 of each amplitude, rounded as scalar arithmetic rounds it."""
    return np.float_power(np.hypot(amplitudes.real, amplitudes.imag), 2)


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


_FACT_SQRT = [math.sqrt(math.factorial(n)) for n in range(MAX_CUTOFF + 1)]


def _pattern_polynomial(pattern: Sequence[int],
                        columns: list[list[tuple[int, complex]]],
                        n_out: int) -> dict[tuple[int, ...], complex]:
    """prod_i (sum_j M[j, i] b_j^dag)^k_i / sqrt(prod_i k_i!) for the input
    pattern k, as created part -> coefficient in order of first creation.
    ``columns[i]`` lists the nonzero (j, M[j, i]); the operators are
    multiplied in one at a time, in input-mode order."""
    scale = 1.0
    for k in pattern:
        scale /= _FACT_SQRT[k]
    poly = {(0,) * n_out: scale}
    for i, k in enumerate(pattern):
        for _ in range(k):
            grown: dict[tuple[int, ...], complex] = {}
            for part, coeff in poly.items():
                for j, m in columns[i]:
                    key = part[:j] + (part[j] + 1,) + part[j + 1:]
                    grown[key] = grown.get(key, 0.0) + coeff * m
            poly = grown
    return poly


def apply_transform(state: FockStateVector, t: ModeTransform) -> FockStateVector:
    """Rewrite each term by substituting creation operators per t.matrix.

    Terms are grouped by their occupations on the input modes, and each
    distinct pattern's polynomial in the output creation operators is
    expanded once, into the coefficients a term-by-term expansion gives
    it.  Every output amplitude is then one product of a term's amplitude
    and a coefficient of its pattern.  Equal output rows with equal labels
    are summed in order of first appearance; each row keeps its term's
    label.  The map is an isometry on creation operators, so every term
    keeps its photon number and nothing is truncated.  Output-only modes
    must be unoccupied (fresh ancillas).
    """
    if t.registry is not state.registry and t.registry.modes != state.registry.modes:
        raise ConfigurationError("transform registry differs from state registry")
    occ, cutoff = state.occupations, state.cutoff
    ins, outs = list(t.input_indices), list(t.output_indices)
    fresh = [i for i in outs if i not in ins]
    busy = occ[:, fresh] != 0
    if busy.any():
        mode = fresh[busy[busy.any(axis=1).argmax()].argmax()]
        raise ValidationError(
            f"output mode {state.registry.modes[mode]} must start in vacuum")

    pattern_of, first = _first_appearance(_row_keys(occ[:, ins], cutoff))
    columns = [[(j, m) for j, m in enumerate(col) if m]
               for col in t.matrix.T.tolist()]
    polys = [_pattern_polynomial(p, columns, len(outs))
             for p in occ[first][:, ins].tolist()]
    # The parts of all patterns, pattern after pattern; each term has one
    # output per part of its pattern, and output o its part at[o].
    part_ids: dict[tuple[int, ...], int] = {}
    part_of = np.array([part_ids.setdefault(part, len(part_ids))
                        for poly in polys for part in poly], dtype=np.int64)
    coef = np.array([c for poly in polys for c in poly.values()], dtype=complex)
    n = np.array([len(poly) for poly in polys], dtype=np.int64)
    sizes = n[pattern_of]
    term = np.repeat(np.arange(len(occ)), sizes)
    shift = (np.cumsum(n) - n)[pattern_of] - (np.cumsum(sizes) - sizes)
    at = np.arange(len(term)) + shift[term]
    # Prune as a term-by-term expansion does: amplitude times coefficient,
    # before the Bose factors.
    amp = _cmul(state.amplitudes[term], coef[at])
    keep = np.hypot(amp.real, amp.imag) >= PRUNE_THRESHOLD
    term, at = term[keep], at[keep]
    part = part_of[at]
    # An output row is fixed by the occupations off the transform's modes,
    # the created part and the label.
    others = sorted(set(range(occ.shape[1])) - set(ins) - set(outs))
    labels, label_ids = np.unique(state.labels, return_inverse=True)
    if (math.comb(len(others) + cutoff, cutoff) * len(part_ids) * len(labels)
            >= 2 ** 63):
        raise ConfigurationError("too many modes for int64 row keys")
    ids, first = _first_appearance(
        (_row_keys(occ[:, others], cutoff) * len(labels) + label_ids)[term]
        * len(part_ids) + part)
    rows = occ[term[first]]
    rows[:, ins] = 0
    rows[:, outs] = np.array(list(part_ids), dtype=np.int16).reshape(
        len(part_ids), len(outs))[part[first]]
    bose = np.array([math.prod(_FACT_SQRT[k] for k in p)
                     for p in part_ids])[part_of]
    # amp * (c * bose): (amp * c) * bose would move last bits of results/.
    scaled = _complex(coef.real * bose, coef.imag * bose)
    return FockStateVector.from_arrays(
        state.registry, cutoff, rows,
        _summed(ids, len(first), _cmul(state.amplitudes[term], scaled[at])),
        state.truncated_weight, state.labels[term[first]])


def tensor(a: FockStateVector, b: FockStateVector) -> FockStateVector:
    """Product state of two states on the same registry with disjoint
    support; each product term's label is the sum of its factors'."""
    if a.registry.modes != b.registry.modes:
        raise ConfigurationError("tensor requires a shared registry")
    if a.cutoff != b.cutoff:
        raise ValidationError("tensor requires the same cutoff policy")
    if (a.occupations.any(axis=0) & b.occupations.any(axis=0)).any():
        raise ValidationError("tensor factors occupy overlapping modes")
    n_terms = len(a.amplitudes) * len(b.amplitudes)
    rows = (a.occupations[:, None, :] + b.occupations[None, :, :]).reshape(
        n_terms, a.registry.n_modes)
    amps = _cmul(a.amplitudes[:, None], b.amplitudes[None, :]).reshape(n_terms)
    labels = (a.labels[:, None] + b.labels[None, :]).reshape(n_terms)
    over = rows.sum(axis=1) > a.cutoff
    dropped = sum(_weights(amps[over]).tolist())
    return FockStateVector.from_arrays(
        a.registry, a.cutoff, rows[~over], amps[~over],
        a.truncated_weight + b.truncated_weight + dropped, labels[~over])


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


def fidelity_to_phi_plus(dm: PolarizationDensityMatrix) -> float:
    """<phi+|rho|phi+> for the (H H + V V)/sqrt(2) Bell state."""
    tr = dm.trace
    if tr <= 1e-300:
        raise UndefinedFidelityError("fidelity undefined for zero-trace matrix")
    val = float(np.real(PHI_PLUS.conj() @ dm.matrix @ PHI_PLUS)) / tr
    return min(max(val, 0.0), 1.0)
