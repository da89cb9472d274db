"""Independent dense density-matrix pipeline for cross-checking the engine.

Everything here deliberately avoids the sparse engine's algorithms: a state is
a dense factor psi (dim x r) of its density matrix rho = psi psi^dagger over an
explicitly enumerated occupation basis, linear elements act through matrix
exponentials of quadratic mode Hamiltonians (each on the space of its own
modes, held sparse), loss acts via sparse Kraus maps (no dilation modes),
every operator U maps psi to U psi, one sparse product on the factor's few
columns, and detection goes through diagonal POVM operators.  Agreement
with the sparse engine is asserted on every outcome probability to 1e-9
absolute and to 1e-12 relative to the dense value.

A ``DenseFockSpace`` builds each operator once and keeps it: ``oracle_check``
passes one space to all its protocol points, so every mode unitary, loss
Kraus set and click POVM is built once per check.  Nothing is cached at
module level, so separate checks share no state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import schur
from scipy.sparse import csgraph, csr_array, hstack, vstack

from .fock import H, V, FockStateVector, Mode, apply_transform, make_registry
from .optics import hwp as sparse_hwp
from .optics import (
    jones_transform,
    loss_channel,
    pbs as sparse_pbs,
    phase_shifter as sparse_phase_shifter,
    qwp as sparse_qwp,
)
from .protocol import ANALYZERS, PHASE_SET_8, ExperimentConfig, run_fixed_phase
from .sources import DetectorModel, click_table


def _enumerate_basis(n_modes: int, cutoff: int) -> np.ndarray:
    """Occupations of n_modes modes with at most cutoff photons, one per
    row, in lexicographic order."""
    occ = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n_modes):  # prepend one mode at a time
        total = occ.sum(axis=1)
        occ = np.vstack([np.insert(occ[total <= cutoff - k], 0, k, axis=1)
                         for k in range(cutoff + 1)])
    return occ


def _sparse(vals: Sequence[float], rows: Sequence[int], cols: Sequence[int],
            dim: int):
    """dim x dim read-only CSR matrix with the given entries."""
    op = csr_array((vals, (rows, cols)), shape=(dim, dim))
    for arr in (op.data, op.indices, op.indptr):
        arr.flags.writeable = False
    return op


def expm(gen: np.ndarray) -> np.ndarray:
    """e^gen for anti-Hermitian gen, from ``eigh`` of each connected block."""
    out, part = np.zeros_like(gen), csgraph.connected_components(gen != 0)[1]
    for at in (np.ix_(part == c, part == c) for c in np.unique(part)):
        lam, vec = np.linalg.eigh(-1j * gen[at])
        out[at] = (vec * np.exp(1j * lam)) @ vec.conj().T
    return out


class DenseFockSpace:
    """Dense truncated Fock space over a fixed number of modes.

    ``occupations`` is the basis as one int array (dim x n_modes) whose
    mixed-radix codes ascend, so one ``searchsorted`` finds any index.
    Mode unitaries, loss Kraus sets and click POVMs are built from it on
    first use and kept for the life of the space, so the protocol points of
    one check that share a space build each operator once.  All are shared
    and read-only; unitaries and Kraus operators are sparse.
    """

    def __init__(self, n_modes: int, cutoff: int):
        if (cutoff + 1) ** n_modes > 2 ** 62:
            raise ValueError("the occupation codes would overflow int64")
        self.n_modes = n_modes
        self.cutoff = cutoff
        self.occupations = _enumerate_basis(n_modes, cutoff)
        self.basis = list(map(tuple, self.occupations.tolist()))
        self.index = {occ: i for i, occ in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._radix = (cutoff + 1) ** np.arange(n_modes - 1, -1, -1)
        self._codes = self.occupations @ self._radix
        self._annihilation: dict[int, object] = {}
        self._hopping: dict[int, tuple] = {}
        self._layouts: dict[tuple[int, ...], tuple] = {}
        self._unitaries: dict[tuple, object] = {}
        self._kraus: dict[tuple[int, float], list] = {}
        self._clicks: dict[tuple, np.ndarray] = {}

    def _lowered(self, mode: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the basis states with at least k photons in ``mode``
        (columns), and of the states they become when k are removed (rows)."""
        cols = np.flatnonzero(self.occupations[:, mode] >= k)
        rows = np.searchsorted(self._codes,
                               self._codes[cols] - k * self._radix[mode])
        return rows, cols

    def annihilation(self, mode: int):
        """Sparse annihilation operator of one mode."""
        op = self._annihilation.get(mode)
        if op is None:
            rows, cols = self._lowered(mode, 1)
            op = self._annihilation[mode] = _sparse(
                np.sqrt(self.occupations[cols, mode]), rows, cols, self.dim)
        return op

    def state(self, terms: Mapping[tuple[int, ...], complex]) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        for occ, amp in terms.items():
            vec[self.index[tuple(occ)]] = amp
        return vec

    def _layout(self, modes: tuple[int, ...]) -> tuple:
        """The hopping products a_a^dag a_b of the m-mode space of ``modes``
        as columns a m + b of one sparse d^2 x m^2 matrix, and the table of
        indices of occupation s on ``modes`` and the r-th of the rest at
        row r, column s (-1 past the cutoff)."""
        layout = self._layouts.get(modes)
        if layout is None:
            if len(modes) not in self._hopping:
                small = DenseFockSpace(len(modes), self.cutoff)
                m, d = small.n_modes, small.dim
                lower = [small.annihilation(a) for a in range(m)]
                # Block (a, b) of this product is a_a^dag a_b.
                pairs = (vstack([x.T for x in lower]) @ hstack(lower)).tocoo()
                (a, i), (b, j) = divmod(pairs.row, d), divmod(pairs.col, d)
                self._hopping[m] = small, csr_array(
                    (pairs.data, (i * d + j, a * m + b)), shape=(d * d, m * m))
            small, hop = self._hopping[len(modes)]
            inside = self.occupations[:, list(modes)]
            _, rest = np.unique(self._codes - inside @ self._radix[list(modes)],
                                return_inverse=True)
            table = np.full((rest.max() + 1, small.dim), -1)
            table[rest, np.searchsorted(small._codes, inside @ small._radix)] = (
                np.arange(self.dim))
            layout = self._layouts[modes] = (hop, table)
        return layout

    def mode_unitary(self, modes: Sequence[int], matrix: np.ndarray):
        """Fock-space unitary implementing a unitary map on creation operators.

        Any log K of the unitary ``matrix`` serves, as Gamma(e^K) =
        e^{dGamma(K)}; K is taken from the complex Schur form.  dGamma(K) =
        sum_ab k_ab a_a^dag a_b keeps the photon number on ``modes`` and every
        other occupation, so the unitary is one blockwise ``expm`` on the
        m-mode space of ``modes``, copied into the block of each occupation
        of the rest, and returned as read-only CSR without exact zeros.
        """
        modes = tuple(map(int, modes))
        matrix = np.asarray(matrix, dtype=complex)
        key = (modes, matrix.shape, matrix.tobytes())
        u = self._unitaries.get(key)
        if u is None:
            if matrix.shape != (len(modes),) * 2 or np.linalg.norm(
                    matrix.conj().T @ matrix - np.eye(len(modes))) > 1e-12:
                raise ValueError(f"not a unitary on {len(modes)} modes")
            hop, table = self._layout(modes)
            t, z = schur(matrix, output="complex")
            k = (z * np.log(np.diag(t))) @ z.conj().T
            block = expm((hop @ k.ravel()).reshape(table.shape[1], -1))
            out, into = np.nonzero(block)
            rows, cols = table[:, out], table[:, into]
            kept = cols >= 0
            u = self._unitaries[key] = _sparse(
                np.broadcast_to(block[out, into], cols.shape)[kept],
                rows[kept], cols[kept], self.dim)
        return u

    def loss_kraus(self, mode: int, transmittance: float) -> list:
        """Kraus operators of the pure-loss channel on one mode.

        Each maps every basis state to at most one basis state, so they are
        held as read-only sparse matrices, like the mode unitaries, and
        ``apply_kraus`` maps a factor psi to its branches K psi, one sparse
        product per operator.
        """
        key = (mode, transmittance)
        ops = self._kraus.get(key)
        if ops is None:
            ops = []
            for k in range(self.cutoff + 1):
                # One amplitude per photon number n >= k, then per state.
                amp = np.array([math.sqrt(math.comb(n, k)
                                          * transmittance ** (n - k)
                                          * (1.0 - transmittance) ** k)
                                for n in range(k, self.cutoff + 1)])
                rows, cols = self._lowered(mode, k)
                ops.append(_sparse(amp[self.occupations[cols, mode] - k],
                                   rows, cols, self.dim))
            self._kraus[key] = ops
        return ops

    def click_povm(self, modes: Sequence[int], efficiency: float,
                   dark: float = 0.0, click: bool = True) -> np.ndarray:
        """Diagonal of the threshold-click POVM element on a mode group, or
        with ``click=False`` of its no-click element.

        For n photons a click is dark + (1 - dark)(1 - (1 - efficiency)^n),
        the photon part as -expm1(n log1p(-efficiency)), and no click is
        (1 - dark)(1 - efficiency)^n; neither cancels.  The miss is a power
        because exp(n log1p(-efficiency)) errs by up to 8 ulp at efficiency
        0.97 and n <= 6, the power by at most 2.
        """
        key = (tuple(map(int, modes)), efficiency, dark, click)
        diag = self._clicks.get(key)
        if diag is None:
            n = self.occupations[:, list(modes)].sum(axis=1)
            if not click:
                diag = (1.0 - dark) * (1.0 - efficiency) ** n
            else:
                # No log(0) at efficiency 1, where only n = 0 is missed.
                photon = ((n > 0) * 1.0 if efficiency == 1.0
                          else -np.expm1(n * math.log1p(-efficiency)))
                diag = dark + (1.0 - dark) * photon
            diag.flags.writeable = False
            self._clicks[key] = diag
        return diag


def apply_kraus(psi: np.ndarray, kraus: Sequence) -> np.ndarray:
    """Factor [K_0 psi | K_1 psi | ...] of sum_k K_k rho K_k^dagger for
    rho = psi psi^dagger, less its columns that are exactly zero."""
    out = np.hstack([op @ psi for op in kraus])
    return out[:, out.any(axis=0)]


def diagonal_expectation(psi: np.ndarray, povm: np.ndarray) -> float:
    """tr(rho E) = sum_i E_i sum_c |psi_ic|^2 for rho = psi psi^dagger and a
    POVM element E diagonal in the occupation basis."""
    return float((psi.real ** 2 + psi.imag ** 2).sum(axis=1) @ povm)


# --- independent source amplitudes -----------------------------------------

def spdc_terms(gamma: float, pair_cutoff: int, cutoff: int,
               idx: Mapping[str, int]) -> dict[tuple[int, ...], complex]:
    """Truncated squeezed-pair amplitudes on modes AH, AV, BH, BV (normalized)."""
    g = math.sqrt(gamma / 2.0)
    n_modes = max(idx.values()) + 1
    terms: dict[tuple[int, ...], complex] = {}
    pair_cutoff = min(pair_cutoff, cutoff // 2)
    for k in range(pair_cutoff + 1):
        for l in range(pair_cutoff + 1 - k):
            occ = [0] * n_modes
            occ[idx["AH"]] += k
            occ[idx["BH"]] += k
            occ[idx["AV"]] += l
            occ[idx["BV"]] += l
            terms[tuple(occ)] = g ** (k + l)
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    return {occ: a / norm for occ, a in terms.items()}


def coherent_terms(mean: float, phases: tuple[float, float], cutoff: int,
                   idx_h: int, idx_v: int,
                   n_modes: int) -> dict[tuple[int, ...], complex]:
    alpha_h = math.sqrt(mean / 2.0) * np.exp(1j * phases[0])
    alpha_v = math.sqrt(mean / 2.0) * np.exp(1j * phases[1])
    pref = math.exp(-mean / 2.0)
    terms: dict[tuple[int, ...], complex] = {}
    for m in range(cutoff + 1):
        for n in range(cutoff + 1 - m):
            occ = [0] * n_modes
            occ[idx_h] = m
            occ[idx_v] = n
            terms[tuple(occ)] = (pref * alpha_h ** m * alpha_v ** n
                                 / math.sqrt(math.factorial(m) * math.factorial(n)))
    return terms


# --- reduced-protocol comparison --------------------------------------------

_ORACLE_MODES = ("AH", "AV", "RH", "RV", "BH", "BV", "EH", "EV", "FH", "FV")


def oracle_protocol_probabilities(cfg: ExperimentConfig, phi_h: float,
                                  phi_v: float,
                                  space: DenseFockSpace | None = None,
                                  ) -> dict[str, float]:
    """Protocol statistics on ten modes via the dense pipeline.

    Matches the engine wiring with full temporal overlap (s0 = 1): dephasing
    and loss on the pair photon (loss and plate transmission as Kraus maps),
    the ancilla either prepared at the receiver (coherent) or launched and
    attenuated (single photon), polarization flip, parity-check PBS and the
    diagonal-basis herald projection, then threshold statistics.  Points
    that pass one ``space`` (ten modes at ``cfg.cutoff``) share its
    operators; by default a fresh space is built.
    """
    idx = {name: i for i, name in enumerate(_ORACLE_MODES)}
    if space is None:
        space = DenseFockSpace(len(_ORACLE_MODES), cfg.cutoff)
    elif (space.n_modes, space.cutoff) != (len(_ORACLE_MODES), cfg.cutoff):
        raise ValueError(f"oracle space has {space.n_modes} modes at cutoff "
                         f"{space.cutoff}; the protocol needs "
                         f"{len(_ORACLE_MODES)} at cutoff {cfg.cutoff}")
    pair = space.state(spdc_terms(cfg.gamma, cfg.pair_cutoff, cfg.cutoff, idx))
    phi_r = (phi_h + cfg.phase_delta[0], phi_v + cfg.phase_delta[1])
    single_photon = cfg.variant == "single_photon_ancilla"
    if single_photon:
        photon = np.eye(len(_ORACLE_MODES), dtype=int)
        pulse = space.state({tuple(photon[idx[m]].tolist()):
                             1.0 / math.sqrt(2.0) for m in ("RH", "RV")})
    else:
        mu = cfg.mu if cfg.transmittance > 0 else 0.0
        pulse = space.state(coherent_terms(mu, phi_r, cfg.cutoff, idx["RH"],
                                           idx["RV"], len(_ORACLE_MODES)))
    # Product state: the sources occupy disjoint mode sets.
    psi = np.zeros(space.dim, dtype=complex)
    for i in np.flatnonzero(pair):
        for j in np.flatnonzero(pulse):
            occ = tuple(p + c for p, c in zip(space.basis[i], space.basis[j]))
            if sum(occ) <= cfg.cutoff:
                psi[space.index[occ]] += pair[i] * pulse[j]
    psi = psi[:, None]

    def rotate(f: np.ndarray, modes: Sequence[int], mat) -> np.ndarray:
        return space.mode_unitary(modes, mat) @ f

    psi = rotate(psi, [idx["BH"], idx["BV"]],
                 np.diag([np.exp(1j * phi_h), np.exp(1j * phi_v)]))
    for mode in ("BH", "BV"):
        psi = apply_kraus(psi, space.loss_kraus(idx[mode], cfg.transmittance))
        psi = apply_kraus(psi, space.loss_kraus(idx[mode],
                                                1.0 - cfg.gp_reflectance))
    if single_photon:
        psi = rotate(psi, [idx["RH"], idx["RV"]],
                     np.diag([np.exp(1j * phi_r[0]), np.exp(1j * phi_r[1])]))
        for mode in ("RH", "RV"):
            psi = apply_kraus(psi,
                              space.loss_kraus(idx[mode], cfg.transmittance))
    psi = rotate(psi, [idx["RH"], idx["RV"]],
                 np.array([[0.0, 1.0], [1.0, 0.0]]))
    # PBS completed to a unitary with the vacuum output ports folded back.
    perm = np.zeros((8, 8))
    order = ["AH", "AV", "RH", "RV", "EH", "EV", "FH", "FV"]
    pairs = [("AH", "EH"), ("AV", "FV"), ("RH", "FH"), ("RV", "EV"),
             ("EH", "AH"), ("FV", "AV"), ("FH", "RH"), ("EV", "RV")]
    pos = {name: k for k, name in enumerate(order)}
    for src, dst in pairs:
        perm[pos[dst], pos[src]] = 1.0
    psi = rotate(psi, [idx[name] for name in order], perm)
    psi = rotate(psi, [idx["FH"], idx["FV"]], ANALYZERS["X"])
    # Both X-basis analyzers put D on the H modes; rotate once per point.
    psi_x = psi
    for side in ("E", "B"):
        psi_x = rotate(psi_x, [idx[side + "H"], idx[side + "V"]],
                       ANALYZERS["X"])

    herald = space.click_povm([idx["FH"]], cfg.eta, cfg.dark_f)

    def probability(f: np.ndarray, e_modes, g_modes) -> float:
        povm = (space.click_povm(e_modes, cfg.eta, cfg.dark_e) * herald
                * space.click_povm(g_modes, cfg.eta_g, cfg.dark_g))
        return diagonal_expectation(f, povm)

    e_hv = {"H": [idx["EH"]], "V": [idx["EV"]]}
    g_hv = {"H": [idx["BH"]], "V": [idx["BV"]]}
    out: dict[str, float] = {
        "triple": probability(psi, [idx["EH"], idx["EV"]],
                              [idx["BH"], idx["BV"]]),
    }
    for se in ("H", "V"):
        for sg in ("H", "V"):
            out[f"Z:{se}{sg}"] = probability(psi, e_hv[se], g_hv[sg])
    for se, pe in (("D", "H"), ("Dbar", "V")):
        for sg, pg in (("D", "H"), ("Dbar", "V")):
            out[f"X:{se}{sg}"] = probability(psi_x, e_hv[pe], g_hv[pg])
    return out


def engine_protocol_probabilities(cfg: ExperimentConfig, phi_h: float,
                                  phi_v: float) -> dict[str, float]:
    out = run_fixed_phase(cfg, phi_h, phi_v)
    res = {"triple": out.triple_probability}
    for (se, sg), val in out.zz_probs.items():
        res[f"Z:{se}{sg}"] = val
    for (se, sg), val in out.xx_probs.items():
        res[f"X:{se}{sg}"] = val
    return res


# --- random-circuit comparison ----------------------------------------------

@dataclass
class OracleReport:
    max_deviation: float
    n_checks: int
    worst_case: str = ""
    max_relative_deviation: float = 0.0
    worst_relative_case: str = ""

    @property
    def passed(self) -> bool:
        # The error terms that set V_Z are ~1e-12, far below 1e-9.
        return self.max_deviation < 1e-9 and self.max_relative_deviation <= 1e-12


def _report(comparisons: Sequence[tuple[float, float, str]]) -> OracleReport:
    """The worst absolute and relative deviation of (engine, dense, what)
    comparisons; a deviation from a dense zero is infinitely relative."""
    report = OracleReport(0.0, len(comparisons))
    for got, want, what in comparisons:
        dev = abs(got - want)
        rel = dev / abs(want) if want else (math.inf if dev else 0.0)
        if dev > report.max_deviation:
            report.max_deviation, report.worst_case = dev, what
        if rel > report.max_relative_deviation:
            report.max_relative_deviation, report.worst_relative_case = rel, what
    return report


def _random_circuit_check(seed: int, space: DenseFockSpace,
                          ) -> list[tuple[float, float, str]]:
    """Compare sparse engine vs dense pipeline on one random small circuit:
    (engine, dense, what) for its 4 click patterns and 36 basis-pair
    probabilities.

    ``space`` holds the four modes of the labels P and Q; its cutoff is the
    circuit's.
    """
    cutoff = space.cutoff
    rng = np.random.default_rng(seed)
    labels = ["P", "Q"]
    # A circuit has at most 4 elements; each loss needs a dump still in vacuum.
    dumps = [f"W{lab}{k}" for lab in labels for k in range(4)]
    losses = {lab: 0 for lab in labels}
    reg = make_registry(labels + dumps)

    dense_names = [f"{lab}{pol}" for lab in labels for pol in (H, V)]
    didx = {name: i for i, name in enumerate(dense_names)}

    # Random low-photon input on the two signal labels.
    occupations = [occ for occ in space.basis if sum(occ) <= 2]
    amps = rng.normal(size=len(occupations)) + 1j * rng.normal(size=len(occupations))
    amps /= np.linalg.norm(amps)
    full = np.zeros((len(occupations), reg.n_modes), dtype=np.int64)
    full[:, [reg.index(Mode(*name)) for name in dense_names]] = occupations
    state = FockStateVector.from_arrays(reg, cutoff, full, amps)
    psi = space.state(dict(zip(occupations, amps)))[:, None]

    n_elements = int(rng.integers(2, 5))
    for _ in range(n_elements):
        kind = rng.choice(["hwp", "qwp", "phase", "pbs", "loss"])
        lab = str(rng.choice(labels))
        modes = [didx[lab + "H"], didx[lab + "V"]]
        if kind in ("hwp", "qwp"):
            theta = float(rng.uniform(0, math.pi))
            build = sparse_hwp if kind == "hwp" else sparse_qwp
            element = build(reg, lab, theta)
            retardance = np.exp(1j * math.pi) if kind == "hwp" else 1j
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]], dtype=complex)
            matrix = rot @ np.diag([1.0, retardance]) @ rot.conj().T
        elif kind == "phase":
            ph, pv = rng.uniform(0, 2 * math.pi, size=2)
            element = sparse_phase_shifter(reg, lab, ph, pv)
            matrix = np.diag([np.exp(1j * ph), np.exp(1j * pv)])
        elif kind == "pbs":
            element = sparse_pbs(reg, "P", "Q", "P", "Q")
            modes = list(range(4))
            matrix = np.zeros((4, 4))
            for src, dst in (("PH", "PH"), ("PV", "QV"), ("QH", "QH"),
                             ("QV", "PV")):
                matrix[didx[dst], didx[src]] = 1.0
        else:
            t = float(rng.uniform(0.2, 1.0))
            dump = f"W{lab}{losses[lab]}"
            losses[lab] += 1
            state = apply_transform(state, loss_channel(reg, lab, t, dump))
            for pol in (H, V):
                psi = apply_kraus(psi, space.loss_kraus(didx[lab + pol], t))
            continue
        state = apply_transform(state, element)
        psi = space.mode_unitary(modes, matrix) @ psi

    det_p = DetectorModel("P", float(rng.uniform(0.1, 1.0)),
                          float(rng.uniform(0, 1e-3)))
    det_q = DetectorModel("Q", float(rng.uniform(0.1, 1.0)),
                          float(rng.uniform(0, 1e-3)))
    found = []
    w, n = click_table(state, [reg.indices("P"), reg.indices("Q")])
    sparse_p, sparse_q = ((det.no_click_probability(n[:, k]),
                           det.click_probability(n[:, k]))
                          for k, det in enumerate((det_p, det_q)))
    for want_p in (True, False):
        for want_q in (True, False):
            sparse = float(w @ (sparse_p[want_p] * sparse_q[want_q]))
            dense = diagonal_expectation(
                psi, space.click_povm([didx["PH"], didx["PV"]],
                                      det_p.efficiency, det_p.dark, want_p)
                * space.click_povm([didx["QH"], didx["QV"]],
                                   det_q.efficiency, det_q.dark, want_q))
            found.append((sparse, dense, f"random circuit seed {seed}: "
                                         f"pattern P={want_p} Q={want_q}"))

    # The engine's analyzer transforms, each built (and checked) once; Z,
    # the H/V basis, needs no analyzer.
    transforms = {(lab, basis): jones_transform(reg, lab, ANALYZERS[basis])
                  for lab in labels for basis in ("X", "Y")}

    def analyze(sparse, dense, lab: str, basis: str):
        """Both states with the +1 eigenstate of ``basis`` on lab's H mode."""
        if basis == "Z":
            return sparse, dense
        u = space.mode_unitary([didx[lab + "H"], didx[lab + "V"]],
                               ANALYZERS[basis])
        return apply_transform(sparse, transforms[lab, basis]), u @ dense

    # The 36 tomography probabilities: P port i and Q port j click in each
    # of the 3 x 3 analyzer basis pairs.
    for basis_p in ANALYZERS:
        state_p, psi_p = analyze(state, psi, "P", basis_p)
        for basis_q in ANALYZERS:
            state_pq, psi_pq = analyze(state_p, psi_p, "Q", basis_q)
            w, n = click_table(state_pq,
                               [reg.indices(*name) for name in dense_names])
            for i, j in itertools.product((0, 1), (2, 3)):
                sparse = float(w @ (det_p.click_probability(n[:, i])
                                    * det_q.click_probability(n[:, j])))
                dense = diagonal_expectation(
                    psi_pq, space.click_povm([i], det_p.efficiency, det_p.dark)
                    * space.click_povm([j], det_q.efficiency, det_q.dark))
                found.append((sparse, dense, f"random circuit seed {seed}: "
                              f"{basis_p}{basis_q} bases, ports "
                              f"{dense_names[i]} {dense_names[j]}"))
    return found


def oracle_check(cfg: ExperimentConfig | None = None, n_seeds: int = 20,
                 base_seed: int = 7_000) -> OracleReport:
    """Compare engine and dense pipeline on random circuits and the protocol.

    The protocol points run at full overlap; the single-photon ancilla's
    at the config's T checks the engine's read of its channel loss.
    """
    comparisons = []
    # One space for every circuit, so the ladder operators, the analyzer
    # unitaries and the PBS are built once.
    circuit_space = DenseFockSpace(4, 3)
    for k in range(n_seeds):
        comparisons += _random_circuit_check(base_seed + k, circuit_space)
    if cfg is not None:
        # One space for every protocol point, so each operator is built once.
        space = DenseFockSpace(len(_ORACLE_MODES), min(cfg.cutoff, 3))
        for variant in ("counter_propagating", "single_photon_ancilla"):
            small = replace(cfg, cutoff=space.cutoff, overlap_s0=1.0,
                            delay_um=0.0, variant=variant,
                            include_feedforward_branch=False)
            for phi_h, phi_v in PHASE_SET_8[:3]:
                got = engine_protocol_probabilities(small, phi_h, phi_v)
                want = oracle_protocol_probabilities(small, phi_h, phi_v,
                                                     space)
                comparisons += [(got[key], want[key], f"{variant} {key} at "
                                 f"phase {phi_v:.3f}") for key in want]
    return _report(comparisons)
