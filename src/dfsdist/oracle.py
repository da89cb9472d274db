"""Independent dense density-matrix pipeline for cross-checking the engine.

Everything here deliberately avoids the sparse engine's algorithms: states are
dense vectors over an explicitly enumerated occupation basis, linear elements
act through matrix exponentials of quadratic mode Hamiltonians, loss acts via
Kraus maps (no dilation modes), and detection through diagonal POVM operators.
Agreement with the sparse engine is asserted to 1e-9 on outcome probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import expm, logm

from .fock import H, MATCHED, V, Mode, make_registry
from .optics import hwp as sparse_hwp
from .optics import (
    loss_channel,
    pbs as sparse_pbs,
    phase_shifter as sparse_phase_shifter,
    qwp as sparse_qwp,
)
from .protocol import (
    ExperimentConfig,
    _analyzer_matrix,
    run_fixed_phase,
)
from .fock import FockStateVector, apply_transform
from .sources import DetectorModel, click_probabilities


def _enumerate_basis(n_modes: int, cutoff: int) -> list[tuple[int, ...]]:
    basis: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int):
        if len(prefix) == n_modes:
            basis.append(prefix)
            return
        for k in range(remaining + 1):
            rec(prefix + (k,), remaining - k)

    rec((), cutoff)
    return basis


class DenseFockSpace:
    """Dense truncated Fock space over a fixed number of modes."""

    def __init__(self, n_modes: int, cutoff: int):
        self.n_modes = n_modes
        self.cutoff = cutoff
        self.basis = _enumerate_basis(n_modes, cutoff)
        self.index = {occ: i for i, occ in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._annihilation: dict[int, np.ndarray] = {}

    def annihilation(self, mode: int) -> np.ndarray:
        op = self._annihilation.get(mode)
        if op is None:
            op = np.zeros((self.dim, self.dim))
            for i, occ in enumerate(self.basis):
                n = occ[mode]
                if n:
                    target = occ[:mode] + (n - 1,) + occ[mode + 1:]
                    op[self.index[target], i] = math.sqrt(n)
            self._annihilation[mode] = op
        return op

    def creation(self, mode: int) -> np.ndarray:
        return self.annihilation(mode).T.copy()

    def state(self, terms: Mapping[tuple[int, ...], complex]) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        for occ, amp in terms.items():
            vec[self.index[tuple(occ)]] = amp
        return vec

    def mode_unitary(self, modes: Sequence[int], matrix: np.ndarray) -> np.ndarray:
        """Fock-space unitary implementing a unitary map on creation operators."""
        k = logm(np.asarray(matrix, dtype=complex))
        gen = np.zeros((self.dim, self.dim), dtype=complex)
        for a, ma in enumerate(modes):
            adag = self.creation(ma)
            for b, mb in enumerate(modes):
                if abs(k[a, b]) < 1e-16:
                    continue
                gen += k[a, b] * (adag @ self.annihilation(mb))
        return expm(gen)

    def loss_kraus(self, mode: int, transmittance: float) -> list[np.ndarray]:
        """Kraus operators of the pure-loss channel on one mode."""
        ops = []
        for k in range(self.cutoff + 1):
            op = np.zeros((self.dim, self.dim))
            for i, occ in enumerate(self.basis):
                n = occ[mode]
                if n < k:
                    continue
                coeff = math.sqrt(math.comb(n, k)
                                  * transmittance ** (n - k)
                                  * (1.0 - transmittance) ** k)
                target = occ[:mode] + (n - k,) + occ[mode + 1:]
                op[self.index[target], i] = coeff
            ops.append(op)
        return ops

    def click_operator(self, modes: Sequence[int], efficiency: float,
                       dark: float = 0.0) -> np.ndarray:
        """Diagonal threshold-click POVM element on a mode group."""
        diag = np.empty(self.dim)
        for i, occ in enumerate(self.basis):
            n = sum(occ[m] for m in modes)
            diag[i] = 1.0 - (1.0 - dark) * (1.0 - efficiency) ** n
        return np.diag(diag)


def apply_kraus(rho: np.ndarray, kraus: Sequence[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(rho)
    for op in kraus:
        out += op @ rho @ op.conj().T
    return out


def reduce_polarization_dense(space: DenseFockSpace, rho: np.ndarray,
                              modes_a: Sequence[int],
                              modes_b: Sequence[int]) -> np.ndarray:
    """One-photon-per-side polarization matrix by direct partial trace.

    modes_a/modes_b are (H, V) index pairs; all other modes are traced out.
    """
    out = np.zeros((4, 4), dtype=complex)
    rest = [m for m in range(space.n_modes)
            if m not in modes_a and m not in modes_b]
    for i, occ_i in enumerate(space.basis):
        na = [occ_i[m] for m in modes_a]
        nb = [occ_i[m] for m in modes_b]
        if sum(na) != 1 or sum(nb) != 1:
            continue
        row = 2 * na[1] + nb[1]
        for j, occ_j in enumerate(space.basis):
            ma = [occ_j[m] for m in modes_a]
            mb = [occ_j[m] for m in modes_b]
            if sum(ma) != 1 or sum(mb) != 1:
                continue
            if any(occ_i[m] != occ_j[m] for m in rest):
                continue
            col = 2 * ma[1] + mb[1]
            out[row, col] += rho[i, j]
    return out


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
                                  phi_v: float) -> dict[str, float]:
    """Protocol statistics on ten modes via the dense pipeline.

    Matches the engine wiring with full temporal overlap (s0 = 1): dephasing
    and loss on the pair photon (loss and plate transmission as Kraus maps),
    the ancilla either prepared at the receiver (coherent) or launched and
    attenuated (single photon), polarization flip, parity-check PBS and the
    diagonal-basis herald projection, then threshold statistics.
    """
    idx = {name: i for i, name in enumerate(_ORACLE_MODES)}
    space = DenseFockSpace(len(_ORACLE_MODES), cfg.cutoff)
    pair = space.state(spdc_terms(cfg.gamma, cfg.pair_cutoff, cfg.cutoff, idx))
    phi_r = (phi_h + cfg.phase_delta[0], phi_v + cfg.phase_delta[1])
    single_photon = cfg.variant == "single_photon_ancilla"
    if single_photon:
        r = 1.0 / math.sqrt(2.0)
        pulse = np.zeros(space.dim, dtype=complex)
        occ_h = [0] * len(_ORACLE_MODES)
        occ_h[idx["RH"]] = 1
        occ_v = [0] * len(_ORACLE_MODES)
        occ_v[idx["RV"]] = 1
        pulse[space.index[tuple(occ_h)]] = r
        pulse[space.index[tuple(occ_v)]] = r
    else:
        mu = cfg.mu if cfg.transmittance > 0 else 0.0
        pulse = space.state(coherent_terms(mu, phi_r, cfg.cutoff, idx["RH"],
                                           idx["RV"], len(_ORACLE_MODES)))
    # Product state: the sources occupy disjoint mode sets.
    psi = np.zeros(space.dim, dtype=complex)
    for i, occ_p in enumerate(space.basis):
        if abs(pair[i]) < 1e-300:
            continue
        for j, occ_c in enumerate(space.basis):
            if abs(pulse[j]) < 1e-300:
                continue
            occ = tuple(p + c for p, c in zip(occ_p, occ_c))
            if sum(occ) <= cfg.cutoff:
                psi[space.index[occ]] += pair[i] * pulse[j]
    rho = np.outer(psi, psi.conj())

    phase_b = space.mode_unitary(
        [idx["BH"], idx["BV"]],
        np.diag([np.exp(1j * phi_h), np.exp(1j * phi_v)]))
    rho = phase_b @ rho @ phase_b.conj().T
    for mode in ("BH", "BV"):
        rho = apply_kraus(rho, space.loss_kraus(idx[mode], cfg.transmittance))
        rho = apply_kraus(rho, space.loss_kraus(idx[mode],
                                                1.0 - cfg.gp_reflectance))
    if single_photon:
        phase_r = space.mode_unitary(
            [idx["RH"], idx["RV"]],
            np.diag([np.exp(1j * phi_r[0]), np.exp(1j * phi_r[1])]))
        rho = phase_r @ rho @ phase_r.conj().T
        for mode in ("RH", "RV"):
            rho = apply_kraus(rho,
                              space.loss_kraus(idx[mode], cfg.transmittance))
    flip = space.mode_unitary([idx["RH"], idx["RV"]],
                              np.array([[0.0, 1.0], [1.0, 0.0]]))
    rho = flip @ rho @ flip.conj().T
    # PBS completed to a unitary with the vacuum output ports folded back.
    perm = np.zeros((8, 8))
    order = ["AH", "AV", "RH", "RV", "EH", "EV", "FH", "FV"]
    pairs = [("AH", "EH"), ("AV", "FV"), ("RH", "FH"), ("RV", "EV"),
             ("EH", "AH"), ("FV", "AV"), ("FH", "RH"), ("EV", "RV")]
    pos = {name: k for k, name in enumerate(order)}
    for src, dst in pairs:
        perm[pos[dst], pos[src]] = 1.0
    pbs_u = space.mode_unitary([idx[name] for name in order], perm)
    rho = pbs_u @ rho @ pbs_u.conj().T
    diag_rot = space.mode_unitary([idx["FH"], idx["FV"]], _analyzer_matrix("D"))
    rho = diag_rot @ rho @ diag_rot.conj().T

    def probability(extra_rotations, e_modes, g_modes) -> float:
        r = rho
        for modes, mat in extra_rotations:
            u = space.mode_unitary(modes, mat)
            r = u @ r @ u.conj().T
        op = (space.click_operator(e_modes, cfg.eta, cfg.dark_e)
              @ space.click_operator([idx["FH"]], cfg.eta, cfg.dark_f)
              @ space.click_operator(g_modes, cfg.eta_g, cfg.dark_g))
        return float(np.real(np.trace(r @ op)))

    e_hv = {"H": [idx["EH"]], "V": [idx["EV"]]}
    g_hv = {"H": [idx["BH"]], "V": [idx["BV"]]}
    out: dict[str, float] = {
        "triple": probability([], [idx["EH"], idx["EV"]],
                              [idx["BH"], idx["BV"]]),
    }
    for se in ("H", "V"):
        for sg in ("H", "V"):
            out[f"Z:{se}{sg}"] = probability([], e_hv[se], g_hv[sg])
    xrot = [([idx["EH"], idx["EV"]], _analyzer_matrix("D")),
            ([idx["BH"], idx["BV"]], _analyzer_matrix("D"))]
    for i, se in enumerate(("D", "Dbar")):
        for j, sg in enumerate(("D", "Dbar")):
            out[f"X:{se}{sg}"] = probability(
                xrot, e_hv["H" if i == 0 else "V"], g_hv["H" if j == 0 else "V"])
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

    @property
    def passed(self) -> bool:
        return self.max_deviation < 1e-9


def _random_circuit_check(seed: int, cutoff: int = 3) -> tuple[float, str]:
    """Compare sparse engine vs dense pipeline on one random small circuit."""
    rng = np.random.default_rng(seed)
    labels = ["P", "Q"]
    # A circuit has at most 4 elements; each loss needs a dump still in vacuum.
    dumps = [f"W{lab}{k}" for lab in labels for k in range(4)]
    losses = {lab: 0 for lab in labels}
    reg = make_registry(labels + dumps)
    sparse_modes = {f"{lab}{pol}": reg.index(Mode(lab, pol, MATCHED))
                    for lab in labels + dumps for pol in (H, V)}

    dense_names = [f"{lab}{pol}" for lab in labels for pol in (H, V)]
    didx = {name: i for i, name in enumerate(dense_names)}
    space = DenseFockSpace(len(dense_names), cutoff)

    # Random low-photon input on the two signal labels.
    occupations = [occ for occ in space.basis if sum(occ) <= 2]
    amps = rng.normal(size=len(occupations)) + 1j * rng.normal(size=len(occupations))
    amps /= np.linalg.norm(amps)
    terms_dense = {occ: amp for occ, amp in zip(occupations, amps)}
    sparse_terms = {}
    for occ, amp in terms_dense.items():
        full = [0] * reg.n_modes
        for name, val in zip(dense_names, occ):
            full[sparse_modes[name]] = val
        sparse_terms[tuple(full)] = amp
    state = FockStateVector(reg, cutoff, sparse_terms)
    psi = space.state(terms_dense)
    rho = np.outer(psi, psi.conj())

    n_elements = int(rng.integers(2, 5))
    for _ in range(n_elements):
        kind = rng.choice(["hwp", "qwp", "phase", "pbs", "loss"])
        lab = str(rng.choice(labels))
        if kind == "hwp":
            theta = float(rng.uniform(0, math.pi))
            state = apply_transform(state, sparse_hwp(reg, lab, theta))
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]], dtype=complex)
            jones = rot @ np.diag([1.0, np.exp(1j * math.pi)]) @ rot.conj().T
            u = space.mode_unitary([didx[lab + "H"], didx[lab + "V"]], jones)
            rho = u @ rho @ u.conj().T
        elif kind == "qwp":
            theta = float(rng.uniform(0, math.pi))
            state = apply_transform(state, sparse_qwp(reg, lab, theta))
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]], dtype=complex)
            jones = rot @ np.diag([1.0, 1j]) @ rot.conj().T
            u = space.mode_unitary([didx[lab + "H"], didx[lab + "V"]], jones)
            rho = u @ rho @ u.conj().T
        elif kind == "phase":
            ph, pv = rng.uniform(0, 2 * math.pi, size=2)
            state = apply_transform(state,
                                    sparse_phase_shifter(reg, lab, ph, pv))
            u = space.mode_unitary([didx[lab + "H"], didx[lab + "V"]],
                                   np.diag([np.exp(1j * ph), np.exp(1j * pv)]))
            rho = u @ rho @ u.conj().T
        elif kind == "pbs":
            state = apply_transform(state, sparse_pbs(reg, "P", "Q", "P", "Q"))
            perm = np.zeros((4, 4))
            for src, dst in (("PH", "PH"), ("PV", "QV"), ("QH", "QH"),
                             ("QV", "PV")):
                perm[didx[dst], didx[src]] = 1.0
            u = space.mode_unitary(list(range(4)), perm)
            rho = u @ rho @ u.conj().T
        else:
            t = float(rng.uniform(0.2, 1.0))
            dump = f"W{lab}{losses[lab]}"
            losses[lab] += 1
            state = apply_transform(state, loss_channel(reg, lab, t, dump))
            for pol in (H, V):
                rho = apply_kraus(rho, space.loss_kraus(didx[lab + pol], t))

    det_p = DetectorModel("P", float(rng.uniform(0.1, 1.0)),
                          float(rng.uniform(0, 1e-3)))
    det_q = DetectorModel("Q", float(rng.uniform(0.1, 1.0)),
                          float(rng.uniform(0, 1e-3)))
    worst = 0.0
    what = ""
    for want_p in (True, False):
        for want_q in (True, False):
            sparse_p = click_probabilities(
                state,
                {"P": (det_p, reg.indices("P")), "Q": (det_q, reg.indices("Q"))},
                {"P": want_p, "Q": want_q})
            op_p = space.click_operator([didx["PH"], didx["PV"]],
                                        det_p.efficiency, det_p.dark)
            op_q = space.click_operator([didx["QH"], didx["QV"]],
                                        det_q.efficiency, det_q.dark)
            if not want_p:
                op_p = np.eye(space.dim) - op_p
            if not want_q:
                op_q = np.eye(space.dim) - op_q
            dense_p = float(np.real(np.trace(rho @ op_p @ op_q)))
            dev = abs(sparse_p - dense_p)
            if dev > worst:
                worst, what = dev, f"pattern P={want_p} Q={want_q}"

    from .fock import reduce_to_polarization_dm
    sparse_dm = reduce_to_polarization_dm(state, "P", "Q").matrix
    dense_dm = reduce_polarization_dense(space, rho,
                                         [didx["PH"], didx["PV"]],
                                         [didx["QH"], didx["QV"]])
    dev = float(np.abs(sparse_dm - dense_dm).max())
    if dev > worst:
        worst, what = dev, "reduced polarization dm"
    return worst, what


def oracle_check(cfg: ExperimentConfig | None = None, n_seeds: int = 20,
                 base_seed: int = 7_000) -> OracleReport:
    """Compare engine and dense pipeline on random circuits and the protocol."""
    worst = 0.0
    what = ""
    n = 0
    for k in range(n_seeds):
        dev, label = _random_circuit_check(base_seed + k)
        n += 9  # 4 patterns + dm entries counted as one block each
        if dev > worst:
            worst, what = dev, f"random circuit seed {base_seed + k}: {label}"
    if cfg is not None:
        for variant in ("counter_propagating", "single_photon_ancilla"):
            small = replace(cfg, cutoff=min(cfg.cutoff, 3), overlap_s0=1.0,
                            delay_um=0.0, variant=variant,
                            include_feedforward_branch=False)
            for phi_h, phi_v in small.phase_shifts[:3]:
                got = engine_protocol_probabilities(small, phi_h, phi_v)
                want = oracle_protocol_probabilities(small, phi_h, phi_v)
                for key in want:
                    dev = abs(got[key] - want[key])
                    n += 1
                    if dev > worst:
                        worst, what = dev, (f"{variant} {key} at phase "
                                            f"{phi_v:.3f}")
    return OracleReport(worst, n, what)
