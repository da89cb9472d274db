import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsdist.fock import (
    H,
    V,
    FockStateVector,
    Mode,
    ValidationError,
    make_registry,
)
from dfsdist.sources import (
    CoherentParams,
    DetectorModel,
    SpdcParams,
    click_table,
    coherent_state,
    effective_qubit_dm,
    pair_state,
    single_photon_state,
    spdc_state,
)


def _pair_sector_probabilities(gamma: float, pair_cutoff: int) -> dict[int, float]:
    """Independent series expansion of the squeezed-pair source.

    Amplitude g^(k+l) on (k, l) pairs with g = sqrt(gamma/2), renormalized over
    the truncated set, exactly as the source definition states.
    """
    g2 = gamma / 2.0
    weights: dict[int, float] = {}
    for k in range(pair_cutoff + 1):
        for l in range(pair_cutoff + 1 - k):
            weights[k + l] = weights.get(k + l, 0.0) + g2 ** (k + l)
    norm = sum(weights.values())
    return {n: w / norm for n, w in weights.items()}


def test_spdc_gamma_zero_is_vacuum():
    reg = make_registry(["A", "B"])
    state = spdc_state(SpdcParams(0.0), reg, 4)
    assert abs(state.amplitude((0,) * 4) - 1.0) < 1e-12
    assert abs(state.norm_squared() - 1.0) < 1e-12


def test_spdc_sector_probabilities_match_expansion_oracle():
    gamma = 3.0e-3
    reg = make_registry(["A", "B"])
    state = spdc_state(SpdcParams(gamma), reg, 4)
    oracle = _pair_sector_probabilities(gamma, 2)
    got: dict[int, float] = {}
    for occ, amp in state.terms.items():
        pairs = sum(occ) // 2
        got[pairs] = got.get(pairs, 0.0) + abs(amp) ** 2
    for n, expect in oracle.items():
        assert abs(got[n] - expect) < 1e-12
    # One-pair probability is the configured rate to leading order.
    assert abs(got[1] - gamma) < 2.0 * gamma ** 2
    # Two-pair to one-pair ratio is (3/4) gamma to leading order.
    assert abs(got[2] / got[1] - 0.75 * gamma) < gamma ** 2


def test_spdc_one_pair_sector_is_bell_state():
    reg = make_registry(["A", "B"])
    state = spdc_state(SpdcParams(1e-3), reg, 4)
    hh = [0, 0, 0, 0]
    hh[reg.index(Mode("A", H))] = hh[reg.index(Mode("B", H))] = 1
    vv = [0, 0, 0, 0]
    vv[reg.index(Mode("A", V))] = vv[reg.index(Mode("B", V))] = 1
    a_hh = state.amplitude(tuple(hh))
    a_vv = state.amplitude(tuple(vv))
    assert abs(a_hh - a_vv) < 1e-15
    assert a_hh.real > 0.0


def test_spdc_truncation_warning():
    reg = make_registry(["A", "B"])
    with pytest.warns(UserWarning, match="pair-number truncation"):
        spdc_state(SpdcParams(0.2, pair_cutoff=1), reg, 4)


def test_pair_state_encodings():
    reg = make_registry(["A", "B"])
    bell = pair_state(reg, 4)
    assert abs(bell.norm_squared() - 1.0) < 1e-12
    alpha, beta = math.sqrt(0.8), math.sqrt(0.2)
    enc = pair_state(reg, 4, amplitudes=(alpha, beta))
    hh = [0] * 4
    hh[reg.index(Mode("A", H))] = hh[reg.index(Mode("B", H))] = 1
    assert abs(enc.amplitude(tuple(hh)) - alpha) < 1e-12
    with pytest.raises(ValidationError):
        pair_state(reg, 4, amplitudes=(1.0, 1.0))


def test_coherent_state_examples():
    reg = make_registry(["R"])
    vac = coherent_state(CoherentParams(0.0), reg, 4)
    assert abs(vac.amplitude((0, 0)) - 1.0) < 1e-12
    mu_b = 0.1
    state = coherent_state(CoherentParams(mu_b), reg, 6, "R")
    p1 = sum(abs(a) ** 2 for occ, a in state.terms.items() if sum(occ) == 1)
    assert abs(p1 - mu_b * math.exp(-mu_b)) < 1e-12
    mean = sum(abs(a) ** 2 * sum(occ) for occ, a in state.terms.items())
    assert abs(mean - mu_b) < 1e-8


def test_coherent_truncation_warning_records_tail():
    reg = make_registry(["R"])
    with pytest.warns(UserWarning, match="coherent truncation"):
        state = coherent_state(CoherentParams(2.0), reg, 3)
    assert state.truncated_weight > 1e-6
    assert abs(state.norm_squared() + state.truncated_weight - 1.0) < 1e-12


def test_single_photon_state_phases():
    reg = make_registry(["R"])
    state = single_photon_state(reg, 3, "R", phases=(0.0, math.pi / 2.0))
    occ_v = [0, 0]
    occ_v[reg.index(Mode("R", V))] = 1
    amp = state.amplitude(tuple(occ_v))
    assert abs(amp - 1j / math.sqrt(2.0)) < 1e-12


def test_detector_model_examples():
    det = DetectorModel("D", 1.0, 0.0)
    assert det.click_probability(1) == 1.0
    dark = DetectorModel("G", 0.09, 1.5e-6)
    assert abs(dark.click_probability(0) - 1.5e-6) < 1e-16
    det2 = DetectorModel("E", 0.13, 0.0)
    assert abs(det2.click_probability(2) - (1.0 - 0.87 ** 2)) < 1e-12
    with pytest.raises(ValidationError):
        DetectorModel("X", 1.3, 0.0)
    with pytest.raises(ValidationError):
        DetectorModel("X", 0.5, 1.0)


def _pattern(state, detectors, bits):
    """Probability of one click pattern on (detector, mode group) pairs."""
    w, n = click_table(state, [idx for _, idx in detectors])
    for k, ((det, _), b) in enumerate(zip(detectors, bits)):
        c = det.click_probability(n[:, k])
        w = w * (c if b else 1.0 - c)
    return float(w.sum())


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 0.1), st.integers(0, 4))
def test_povm_completeness(eta, dark, n):
    reg = make_registry(["D"])
    occ = [0, 0]
    occ[reg.index(Mode("D", H))] = n
    state = FockStateVector(reg, 4, {tuple(occ): 1.0})
    det = DetectorModel("D", eta, dark)
    detectors = [(det, reg.indices("D"))]
    click = _pattern(state, detectors, [True])
    no_click = _pattern(state, detectors, [False])
    assert abs(click - det.click_probability(n)) < 1e-12
    assert abs(click + no_click - 1.0) < 1e-12


def test_click_probabilities_pattern():
    reg = make_registry(["A", "B"])
    r = 1.0 / math.sqrt(2.0)
    hh = [0] * 4
    hh[reg.index(Mode("A", H))] = hh[reg.index(Mode("B", H))] = 1
    vv = [0] * 4
    vv[reg.index(Mode("A", V))] = vv[reg.index(Mode("B", V))] = 1
    state = FockStateVector(reg, 2, {tuple(hh): r, tuple(vv): r})
    det = DetectorModel("D", 0.5, 0.0)
    detectors = [(det, reg.indices("A")), (det, reg.indices("B"))]
    assert abs(_pattern(state, detectors, [True, True]) - 0.25) < 1e-12
    assert abs(_pattern(state, detectors, [True, False]) - 0.25) < 1e-12
    total = sum(_pattern(state, detectors, bits)
                for bits in itertools.product((False, True), repeat=2))
    assert abs(total - 1.0) < 1e-12


_KERNEL_REG = make_registry(["A", ("B", True)])   # six modes


@st.composite
def _kernel_cases(draw):
    n_modes = _KERNEL_REG.n_modes
    # Each occupation places up to three photons on the six modes.
    occupations = draw(st.lists(
        st.lists(st.integers(0, n_modes - 1), max_size=3)
        .map(lambda photons: tuple(photons.count(i) for i in range(n_modes))),
        min_size=1, max_size=6, unique=True))
    amps = draw(st.lists(st.complex_numbers(max_magnitude=1.0,
                                            allow_nan=False,
                                            allow_infinity=False),
                         min_size=len(occupations),
                         max_size=len(occupations)))
    groups = draw(st.lists(st.lists(st.integers(0, n_modes - 1), min_size=1,
                                    max_size=n_modes, unique=True),
                           min_size=1, max_size=3))
    detectors = [DetectorModel("D", draw(st.floats(0.0, 1.0)),
                               draw(st.floats(0.0, 0.5))) for _ in groups]
    return dict(zip(occupations, amps)), groups, detectors


@settings(max_examples=60, deadline=None)
@given(_kernel_cases())
def test_click_table_patterns_match_per_term_products(case):
    terms, groups, detectors = case
    state = FockStateVector(_KERNEL_REG, 3, terms)
    weights, counts = click_table(state, groups)
    assert len(weights) == counts.shape[0] == len(state.terms)
    assert counts.shape[1] == len(groups)
    norm = 0.0
    for bits in itertools.product((False, True), repeat=len(groups)):
        want = 0.0
        for occ, amp in state.terms.items():
            p = abs(amp) ** 2
            for det, group, b in zip(detectors, groups, bits):
                n = sum(occ[i] for i in group)
                click = 1.0 - (1.0 - det.dark) * (1.0 - det.efficiency) ** n
                p *= click if b else 1.0 - click
            want += p
        got = _pattern(state, list(zip(detectors, groups)), bits)
        assert abs(got - want) <= 1e-12 * max(want, 1e-300) + 1e-300
        norm += got
    assert abs(norm - state.norm_squared()) <= 1e-12 * state.norm_squared()


def _bell_with_labels(reg):
    r = 1.0 / math.sqrt(2.0)
    hh = [0] * reg.n_modes
    hh[reg.index(Mode("E", H))] = hh[reg.index(Mode("G", H))] = 1
    vv = [0] * reg.n_modes
    vv[reg.index(Mode("E", V))] = vv[reg.index(Mode("G", V))] = 1
    return FockStateVector(reg, 2, {tuple(hh): r, tuple(vv): r})


def _conditioned(state, det_e, det_g, herald=None):
    """Normalized effective two-qubit state and the probability that E, G
    (and the herald on F's H modes, if given) all click."""
    reg = state.registry
    groups = {"E": (det_e, reg.indices("E")), "G": (det_g, reg.indices("G"))}
    herald_idx = None
    if herald is not None:
        herald_idx = reg.indices("F", pol=H)
        groups["F"] = (herald, herald_idx)
    prob = _pattern(state, list(groups.values()), [True] * len(groups))
    dm = effective_qubit_dm(state, "E", "G", det_e, det_g, herald_idx, herald)
    return dm.normalized(), prob


def test_conditioned_dm_ideal_detectors():
    reg = make_registry(["E", "G"])
    state = _bell_with_labels(reg)
    det = DetectorModel("D", 1.0, 0.0)
    dm, prob = _conditioned(state, det, det)
    assert abs(prob - 1.0) < 1e-12
    assert abs(dm.matrix[0, 3] - 0.5) < 1e-12


def test_conditioned_dm_dark_only_is_maximally_mixed():
    # Vacuum plus dark counts: the click-sector state carries no information.
    reg = make_registry(["E", "G"])
    vac = FockStateVector(reg, 2, {(0,) * 4: 1.0})
    det = DetectorModel("D", 0.5, 1e-3)
    dm, prob = _conditioned(vac, det, det)
    assert abs(prob - 1e-6) < 1e-15
    assert np.abs(dm.matrix - np.eye(4) / 4.0).max() < 1e-12


def test_conditioned_dm_efficiency_cancels_in_state():
    reg = make_registry(["E", "G"])
    state = _bell_with_labels(reg)
    lossy = DetectorModel("D", 0.25, 0.0)
    dm, prob = _conditioned(state, lossy, lossy)
    assert abs(prob - 0.25 ** 2) < 1e-12
    assert abs(dm.matrix[0, 3] - 0.5) < 1e-12


def test_conditioned_dm_dark_dilutes_correlations():
    # A one-sided photon with the partner lost: dark counts promote it into
    # the coincidence sector as a maximally mixed partner.
    reg = make_registry(["E", "G"])
    occ = [0] * 4
    occ[reg.index(Mode("E", H))] = 1
    state = FockStateVector(reg, 2, {tuple(occ): 1.0})
    det_e = DetectorModel("E", 0.5, 0.0)
    det_g = DetectorModel("G", 0.5, 1e-4)
    dm, prob = _conditioned(state, det_e, det_g)
    assert abs(prob - 0.5 * 1e-4) < 1e-15
    expect = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2.0)
    assert np.abs(dm.matrix - expect).max() < 1e-12


def test_effective_dm_excludes_multiphoton_sectors():
    reg = make_registry(["E", "G"])
    occ = [0] * 4
    occ[reg.index(Mode("E", H))] = 2
    occ[reg.index(Mode("G", H))] = 1
    state = FockStateVector(reg, 3, {tuple(occ): 1.0})
    det = DetectorModel("D", 0.5, 0.0)
    dm = effective_qubit_dm(state, "E", "G", det, det)
    assert dm.trace < 1e-15


def test_conditioned_dm_with_herald_weight():
    reg = make_registry(["E", "G", "F"])
    r = 1.0 / math.sqrt(2.0)
    hh = [0] * 6
    hh[reg.index(Mode("E", H))] = hh[reg.index(Mode("G", H))] = 1
    hh[reg.index(Mode("F", H))] = 1
    vv = [0] * 6
    vv[reg.index(Mode("E", V))] = vv[reg.index(Mode("G", V))] = 1
    state = FockStateVector(reg, 3, {tuple(hh): r, tuple(vv): r})
    det = DetectorModel("D", 1.0, 0.0)
    herald = DetectorModel("F", 1.0, 0.0)
    dm, prob = _conditioned(state, det, det, herald)
    # Only the branch with the herald photon survives.
    assert abs(prob - 0.5) < 1e-12
    assert abs(dm.matrix[0, 0] - 1.0) < 1e-12


def _reference_effective_qubit_dm(state, side_a, side_b, det_a, det_b,
                                  herald_indices=None, herald_det=None):
    """The term-by-term construction the array kernel replaced."""
    reg = state.registry
    idx_a = {i: (reg.modes[i].pol, reg.modes[i].temporal)
             for i in reg.indices(side_a)}
    idx_b = {i: (reg.modes[i].pol, reg.modes[i].temporal)
             for i in reg.indices(side_b)}
    rest = [i for i in range(reg.n_modes) if i not in idx_a and i not in idx_b]
    herald = list(herald_indices) if herald_indices is not None else []

    def herald_weight(occ):
        if herald_det is None:
            return 1.0
        return herald_det.click_probability(sum(occ[i] for i in herald))

    sec11, sec10, sec01, hw = {}, {}, {}, {}
    w00 = 0.0
    for occ, amp in state.terms.items():
        na = sum(occ[i] for i in idx_a)
        nb = sum(occ[i] for i in idx_b)
        if na > 1 or nb > 1:
            continue
        rest_occ = tuple(occ[i] for i in rest)
        if na == 1:
            pol_a, tau_a = idx_a[next(i for i in idx_a if occ[i])]
        if nb == 1:
            pol_b, tau_b = idx_b[next(i for i in idx_b if occ[i])]
        if na == 1 and nb == 1:
            key = (rest_occ, tau_a, tau_b)
            vec = sec11.setdefault(key, np.zeros(4, dtype=complex))
            vec[2 * (pol_a == V) + (pol_b == V)] += amp
        elif na == 1:
            key = (rest_occ, tau_a, None)
            vec = sec10.setdefault(key, np.zeros(2, dtype=complex))
            vec[int(pol_a == V)] += amp
        elif nb == 1:
            key = (rest_occ, None, tau_b)
            vec = sec01.setdefault(key, np.zeros(2, dtype=complex))
            vec[int(pol_b == V)] += amp
        else:
            w00 += herald_weight(occ) * abs(amp) ** 2
            continue
        if key not in hw:
            full = [0] * reg.n_modes
            for pos, val in zip(rest, rest_occ):
                full[pos] = val
            hw[key] = herald_weight(full)

    ea, da = det_a.efficiency, det_a.dark
    eb, db = det_b.efficiency, det_b.dark
    eye2 = np.eye(2, dtype=complex)
    rho = np.zeros((4, 4), dtype=complex)
    s11 = np.zeros((4, 4), dtype=complex)
    for key, vec in sec11.items():
        s11 += hw[key] * np.outer(vec, vec.conj())
    t4 = s11.reshape(2, 2, 2, 2)
    rho += (1 - da) * ea * (1 - db) * eb * s11
    rho += (1 - da) * ea * db * np.kron(np.trace(t4, axis1=1, axis2=3), eye2)
    rho += da * (1 - db) * eb * np.kron(eye2, np.trace(t4, axis1=0, axis2=2))
    rho += da * db * float(np.real(np.trace(s11))) * np.eye(4)
    for sec, eff, dark, other_dark, a_side in ((sec10, ea, da, db, True),
                                               (sec01, eb, db, da, False)):
        s = np.zeros((2, 2), dtype=complex)
        for key, vec in sec.items():
            s += hw[key] * np.outer(vec, vec.conj())
        block = (1 - dark) * eff * s + dark * float(np.real(np.trace(s))) * eye2
        rho += other_dark * (np.kron(block, eye2) if a_side
                             else np.kron(eye2, block))
    rho += da * db * w00 * np.eye(4)
    return (rho + rho.conj().T) / 2.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 0.05),
       st.floats(0.0, 0.05))
def test_effective_qubit_dm_matches_term_by_term_construction(seed, herald,
                                                              dark_a, dark_b):
    # E and G carry temporal twins; F's H modes are the herald; X is idle.
    rng = np.random.default_rng(seed)
    reg = make_registry([("E", True), ("G", True), ("F", True), "X"])
    terms = {}
    for _ in range(int(rng.integers(1, 30))):
        occ = [0] * reg.n_modes
        for mode in rng.integers(0, reg.n_modes, size=int(rng.integers(0, 5))):
            occ[mode] += 1
        terms[tuple(occ)] = complex(rng.normal(), rng.normal())
    state = FockStateVector(reg, 4, terms).normalized()
    det_a = DetectorModel("A", float(rng.uniform(0.1, 1.0)), dark_a)
    det_b = DetectorModel("B", float(rng.uniform(0.1, 1.0)), dark_b)
    args = ()
    if herald:
        args = (reg.indices("F", pol=H), DetectorModel("F", 0.7, 1e-3))
    want = _reference_effective_qubit_dm(state, "E", "G", det_a, det_b, *args)
    got = effective_qubit_dm(state, "E", "G", det_a, det_b, *args).matrix
    assert np.abs(got - want).max() <= 1e-14
