import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfsdist import protocol
from dfsdist.fock import (
    H,
    V,
    FockStateVector,
    Mode,
    PolarizationDensityMatrix,
    ValidationError,
    apply_transform,
    make_registry,
)
from dfsdist.optics import jones_transform
from dfsdist.sources import (
    CoherentParams,
    DetectorModel,
    SpdcParams,
    click_table,
    coherent_state,
    pair_state,
    single_photon_state,
    spdc_state,
)
from helpers import exact_click_parts


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
    assert det2.miss_probability(2) == (1.0 - 0.13) ** 2
    with pytest.raises(ValidationError):
        DetectorModel("X", 1.3, 0.0)
    with pytest.raises(ValidationError):
        DetectorModel("X", 0.5, 1.0)


def test_click_formula_matches_exact_rationals():
    # Efficiencies down to the pair side's folded 8.6e-8 (eta_g T (1 - R_gp)
    # at T = 1e-6), where 1 - (1 - dark)(1 - eta)^n would lose 9 digits.
    n = np.arange(7)
    for eta in (0.0, 8.6e-8, 2.6e-4, 0.09, 1.0):
        for dark in (0.0, 1.5e-6, 0.9):
            det = DetectorModel("D", eta, dark)
            exact = [exact_click_parts(eta, dark, k) for k in n]
            for got, want in (
                    (det.photon_probability(n), [p for p, _ in exact]),
                    (det.miss_probability(n),
                     [(1 - Fraction(eta)) ** int(k) for k in n]),
                    (det.click_probability(n), [p + d for p, d in exact]),
                    (det.no_click_probability(n),
                     [1 - p - d for p, d in exact])):
                for k, (g, w) in enumerate(zip(got.tolist(), want)):
                    assert abs(Fraction(g) - w) <= 4 * math.ulp(float(w)), (
                        eta, dark, k)
            clicks = det.click_probability(n)
            assert clicks[0] == dark  # no photon: the dark count, exactly
            assert [det.click_probability(int(k)) for k in n] == clicks.tolist()


def _pattern(state, detectors, bits):
    """Probability of one click pattern on (detector, mode group) pairs."""
    w, n = click_table(state, [idx for _, idx in detectors])
    for k, ((det, _), b) in enumerate(zip(detectors, bits)):
        w = w * (det.click_probability(n[:, k]) if b
                 else det.no_click_probability(n[:, k]))
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
# A nearly certain click: 1 - click_probability came back 2.7e-12 off.
@example(({(3, 0, 0, 0, 0, 0): 1.0}, [[0]],
          [DetectorModel("D", 0.9565, 0.5)]))
def test_click_table_patterns_match_per_term_products(case):
    terms, groups, detectors = case
    state = FockStateVector(_KERNEL_REG, 3, terms)
    weights, counts = click_table(state, groups)
    assert len(weights) == counts.shape[0] == len(state.terms)
    assert counts.shape[1] == len(groups)
    assert counts.dtype == state.occupations.dtype
    assert counts.tolist() == [[sum(row[i] for i in group) for group in groups]
                               for row in state.occupations.tolist()]
    norm = 0.0
    for bits in itertools.product((False, True), repeat=len(groups)):
        want = 0.0
        for occ, amp in state.terms.items():
            p = abs(amp) ** 2
            for det, group, b in zip(detectors, groups, bits):
                n = sum(occ[i] for i in group)
                photon, dark = exact_click_parts(det.efficiency, det.dark, n)
                p *= float(photon + dark if b else 1 - photon - dark)
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


def _tomography(state, det_e, det_g, herald=None):
    """The protocol's tomography of E and G on a bare state, heralded by
    F's H modes if a herald detector is given."""
    plan = protocol._Plan(state.registry, "E", "G",
                          None if herald is None else "F", [],
                          {"E": det_e, "G": det_g, "F": herald}, ([], []))
    return protocol._tomography(plan, state)


def _conditioned(state, det_e, det_g, herald=None):
    """Tomography state of E and G, and the probability that E, G (and the
    herald on F's H modes, if given) all click."""
    reg = state.registry
    groups = {"E": (det_e, reg.indices("E")), "G": (det_g, reg.indices("G"))}
    if herald is not None:
        groups["F"] = (herald, reg.indices("F", pol=H))
    prob = _pattern(state, list(groups.values()), [True] * len(groups))
    return (PolarizationDensityMatrix(_tomography(state, det_e, det_g, herald)),
            prob)


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


def test_conditioned_dm_counts_multiphoton_sectors():
    # Two photons on E: its Z analysis clicks on H only, and in the X and Y
    # bases both ports click alike, so the state is |HH><HH| with weight.
    reg = make_registry(["E", "G"])
    occ = [0] * 4
    occ[reg.index(Mode("E", H))] = 2
    occ[reg.index(Mode("G", H))] = 1
    state = FockStateVector(reg, 3, {tuple(occ): 1.0})
    det = DetectorModel("D", 0.5, 0.0)
    dm, prob = _conditioned(state, det, det)
    assert abs(prob - 0.75 * 0.5) < 1e-12
    assert np.abs(dm.matrix - np.diag([1.0, 0.0, 0.0, 0.0])).max() < 1e-12


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


def _reference_tomography(state, det_e, det_g, herald=None):
    """Least-squares fit of a two-qubit state to the 36 normalized
    basis-pair frequencies, each summed term by term."""
    reg = state.registry
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    bases = {"Z": "H", "X": "D", "Y": "R"}
    rows, freqs = [], []
    for be, bg in itertools.product(bases, repeat=2):
        rotated = state
        for side, basis in (("E", be), ("G", bg)):
            rotated = apply_transform(rotated, jones_transform(
                reg, side, protocol._analyzer_matrix(bases[basis])))
        probs = np.zeros((2, 2))
        for occ, amp in rotated.terms.items():
            w = abs(amp) ** 2
            if herald is not None:
                w *= herald.click_probability(
                    sum(occ[i] for i in reg.indices("F", pol=H)))
            for i, j in itertools.product(range(2), repeat=2):
                probs[i, j] += (w * det_e.click_probability(
                    sum(occ[k] for k in reg.indices("E", pol=(H, V)[i])))
                    * det_g.click_probability(
                        sum(occ[k] for k in reg.indices("G", pol=(H, V)[j]))))
        kets = [[np.array(protocol.ANALYZER_KETS[s])
                 for s in (bases[b], {"H": "V", "D": "Dbar", "R": "L"}[bases[b]])]
                for b in (be, bg)]
        for i, j in itertools.product(range(2), repeat=2):
            ket = np.kron(kets[0][i], kets[1][j])
            proj = np.outer(ket, ket.conj())
            rows.append([np.trace(proj @ np.kron(a, b)).real
                         for a in paulis for b in paulis])
            freqs.append(probs[i, j] / probs.sum())
    coef = np.linalg.lstsq(np.array(rows), np.array(freqs), rcond=None)[0]
    return sum(c * np.kron(a, b) for c, (a, b) in
               zip(coef, itertools.product(paulis, repeat=2)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 0.05),
       st.floats(0.0, 0.05))
def test_tomography_matches_term_by_term_least_squares(seed, herald, dark_e,
                                                       dark_g):
    # E and G carry temporal twins; F's H modes are the herald; X is idle.
    rng = np.random.default_rng(seed)
    reg = make_registry([("E", True), ("G", True), ("F", True), "X"])
    terms = {}
    for _ in range(int(rng.integers(1, 30))):
        occ = [0] * reg.n_modes
        for mode in rng.integers(0, reg.n_modes, size=int(rng.integers(0, 5))):
            occ[mode] += 1
        terms[tuple(occ)] = complex(rng.normal(), rng.normal())
    # Dark counts on both sides keep every basis pair's coincidences > 0.
    state = FockStateVector(reg, 4, terms).normalized()
    det_e = DetectorModel("E", float(rng.uniform(0.1, 1.0)), dark_e + 1e-3)
    det_g = DetectorModel("G", float(rng.uniform(0.1, 1.0)), dark_g + 1e-3)
    det_f = DetectorModel("F", 0.7, 1e-3) if herald else None
    want = _reference_tomography(state, det_e, det_g, det_f)
    got = _tomography(state, det_e, det_g, det_f)
    assert np.abs(got - want).max() <= 1e-12
