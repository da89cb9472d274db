import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsdist.fock import (
    H,
    MATCHED,
    ORTHOGONAL,
    V,
    ConfigurationError,
    FockStateVector,
    Mode,
    ValidationError,
    apply_transform,
    make_registry,
)
from dfsdist.optics import (
    OverlapModel,
    hwp,
    loss_channel,
    overlap_at_delay,
    overlap_split,
    pbs,
    phase_shifter,
    qwp,
)
from dfsdist.sources import CoherentParams, coherent_state
from helpers import states_allclose


def _single(reg, label, pol, cutoff=3):
    occ = [0] * reg.n_modes
    occ[reg.index(Mode(label, pol, MATCHED))] = 1
    return FockStateVector(reg, cutoff, {tuple(occ): 1.0})


@pytest.fixture
def four_port_registry():
    return make_registry(["A", "R", "E", "F"])


def test_pbs_routing(four_port_registry):
    reg = four_port_registry
    t = pbs(reg, "A", "R", "E", "F")
    out = apply_transform(_single(reg, "A", H), t)
    assert abs(out.amplitude(_occ(reg, [("E", H)])) - 1.0) < 1e-12
    out = apply_transform(_single(reg, "A", V), t)
    assert abs(out.amplitude(_occ(reg, [("F", V)])) - 1.0) < 1e-12
    out = apply_transform(_single(reg, "R", H), t)
    assert abs(out.amplitude(_occ(reg, [("F", H)])) - 1.0) < 1e-12
    out = apply_transform(_single(reg, "R", V), t)
    assert abs(out.amplitude(_occ(reg, [("E", V)])) - 1.0) < 1e-12


def _occ(reg, photons):
    occ = [0] * reg.n_modes
    for label, pol in photons:
        occ[reg.index(Mode(label, pol, MATCHED))] += 1
    return tuple(occ)


def test_pbs_parity_reject_channel(four_port_registry):
    # H photon on one input and V on the other leave through the same port,
    # so requiring one photon per output rejects this configuration.
    reg = four_port_registry
    t = pbs(reg, "A", "R", "E", "F")
    state = FockStateVector(reg, 3, {_occ(reg, [("A", H), ("R", V)]): 1.0})
    out = apply_transform(state, t)
    assert abs(out.amplitude(_occ(reg, [("E", H), ("E", V)])) - 1.0) < 1e-12
    for occ, amp in out.terms.items():
        n_f = sum(occ[i] for i in reg.indices("F"))
        assert n_f == 0


def test_pbs_photon_number_per_polarization_conserved(four_port_registry):
    reg = four_port_registry
    t = pbs(reg, "A", "R", "E", "F")
    state = FockStateVector(
        reg, 4,
        {_occ(reg, [("A", H), ("A", V), ("R", H)]): 0.8,
         _occ(reg, [("A", V), ("R", V)]): 0.6})
    out = apply_transform(state, t)
    for occ, amp in out.terms.items():
        n_h = sum(occ[i] for i in
                  [m for m in range(reg.n_modes) if reg.modes[m].pol == H])
        n_v = sum(occ[i] for i in
                  [m for m in range(reg.n_modes) if reg.modes[m].pol == V])
        assert (n_h, n_v) in {(2, 1), (0, 2)}


def test_waveplate_examples():
    reg = make_registry(["A"])
    out = apply_transform(_single(reg, "A", H), hwp(reg, "A", 0.0))
    assert abs(out.amplitude(_occ(reg, [("A", H)])) - 1.0) < 1e-12
    out = apply_transform(_single(reg, "A", V), hwp(reg, "A", 0.0))
    assert abs(out.amplitude(_occ(reg, [("A", V)])) + 1.0) < 1e-12
    out = apply_transform(_single(reg, "A", H), hwp(reg, "A", math.pi / 8.0))
    r = 1.0 / math.sqrt(2.0)
    assert abs(out.amplitude(_occ(reg, [("A", H)])) - r) < 1e-12
    assert abs(out.amplitude(_occ(reg, [("A", V)])) - r) < 1e-12
    out = apply_transform(_single(reg, "A", H), hwp(reg, "A", math.pi / 4.0))
    assert abs(out.amplitude(_occ(reg, [("A", V)])) - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, math.pi))
def test_hwp_squares_to_identity(theta):
    reg = make_registry(["A"])
    state = FockStateVector(
        reg, 2, {_occ(reg, [("A", H)]): 0.6, _occ(reg, [("A", V)]): 0.8})
    once = apply_transform(state, hwp(reg, "A", theta))
    twice = apply_transform(once, hwp(reg, "A", theta))
    assert states_allclose(twice, state, tol=1e-10, up_to_global_phase=True)


def test_phase_shifter_examples():
    reg = make_registry(["A"])
    state = FockStateVector(
        reg, 2, {_occ(reg, [("A", H)]): 0.6, _occ(reg, [("A", V)]): 0.8})
    assert states_allclose(
        apply_transform(state, phase_shifter(reg, "A", 0.0, 0.0)), state)
    r = 1.0 / math.sqrt(2.0)
    diag = FockStateVector(
        reg, 2, {_occ(reg, [("A", H)]): r, _occ(reg, [("A", V)]): r})
    out = apply_transform(diag, phase_shifter(reg, "A", 0.0, math.pi))
    assert abs(out.amplitude(_occ(reg, [("A", V)])) + r) < 1e-12


def test_phase_on_either_pair_half_is_equivalent():
    # Collective dephasing acting on one photon of an entangled pair equals
    # the same dephasing acting on the other photon, up to a global phase.
    reg = make_registry(["A", "B"])
    r = 1.0 / math.sqrt(2.0)
    pair = FockStateVector(
        reg, 2, {_occ(reg, [("A", H), ("B", H)]): r,
                 _occ(reg, [("A", V), ("B", V)]): r})
    on_b = apply_transform(pair, phase_shifter(reg, "B", 0.3, 1.1))
    on_a = apply_transform(pair, phase_shifter(reg, "A", 0.3, 1.1))
    assert states_allclose(on_a, on_b, tol=1e-12, up_to_global_phase=True)


def test_loss_channel_examples():
    reg = make_registry(["A", "L"])
    photon = _single(reg, "A", H)
    out = apply_transform(photon, loss_channel(reg, "A", 1.0, "L"))
    assert states_allclose(out, photon)
    out = apply_transform(photon, loss_channel(reg, "A", 0.1, "L"))
    surv = sum(abs(a) ** 2 for occ, a in out.terms.items()
               if occ[reg.index(Mode("A", H))] == 1)
    assert abs(surv - 0.1) < 1e-12
    with pytest.raises(ValidationError):
        loss_channel(reg, "A", 1.5, "L")


def test_loss_channel_poisson_thinning():
    reg = make_registry(["R", "L"])
    state = coherent_state(CoherentParams(0.5, (1.0, 0.0)), reg, 8, "R")
    out = apply_transform(state, loss_channel(reg, "R", 0.3, "L"))
    idx = reg.index(Mode("R", H, MATCHED))
    mean = sum(abs(a) ** 2 * occ[idx] for occ, a in out.terms.items())
    # Tolerance set by the Poisson tail beyond the cutoff.
    assert abs(mean - 0.5 * 0.3) < 1e-7


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 1.0), st.floats(0.1, 1.0))
def test_loss_composition_matches_product(t1, t2):
    reg = make_registry(["A", "B", "L1", "L2", "L3"])
    r = 1.0 / math.sqrt(2.0)
    pair = FockStateVector(
        reg, 2, {_occ(reg, [("A", H), ("B", H)]): r,
                 _occ(reg, [("A", V), ("B", V)]): r})
    two_step = apply_transform(
        apply_transform(pair, loss_channel(reg, "B", t1, "L1")),
        loss_channel(reg, "B", t2, "L2"))
    one_step = apply_transform(pair, loss_channel(reg, "B", t1 * t2, "L3"))
    rho_two = _reduced(two_step, reg.indices("A") + reg.indices("B"))
    rho_one = _reduced(one_step, reg.indices("A") + reg.indices("B"))
    for key in rho_two.keys() | rho_one.keys():
        assert abs(rho_two.get(key, 0.0) - rho_one.get(key, 0.0)) < 1e-10


def _reduced(state, keep):
    """Density matrix of the modes ``keep`` with every other mode traced
    out, as {(occupation, occupation): entry}."""
    branches: dict[tuple, dict[tuple, complex]] = {}
    for occ, amp in state.terms.items():
        rest = tuple(n for i, n in enumerate(occ) if i not in keep)
        branches.setdefault(rest, {})[tuple(occ[i] for i in keep)] = amp
    rho: dict[tuple, complex] = {}
    for vec in branches.values():
        for k1, a1 in vec.items():
            for k2, a2 in vec.items():
                rho[k1, k2] = rho.get((k1, k2), 0.0) + a1 * a2.conjugate()
    return rho


def test_overlap_split_examples():
    reg = make_registry([("R", True)])
    photon = _single(reg, "R", H)
    assert states_allclose(
        apply_transform(photon, overlap_split(reg, "R", 1.0)), photon)
    out = apply_transform(photon, overlap_split(reg, "R", 0.0))
    occ = [0] * reg.n_modes
    occ[reg.index(Mode("R", H, ORTHOGONAL))] = 1
    assert abs(abs(out.amplitude(tuple(occ))) - 1.0) < 1e-12
    with pytest.raises(ConfigurationError):
        overlap_split(make_registry(["R"]), "R", 0.5)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 1.0))
def test_overlap_split_preserves_mean_photon_number(s):
    reg = make_registry([("R", True)])
    state = coherent_state(CoherentParams(0.3), reg, 5, "R")
    out = apply_transform(state, overlap_split(reg, "R", s))
    mean = sum(abs(a) ** 2 * sum(occ) for occ, a in out.terms.items())
    mean_in = sum(abs(a) ** 2 * sum(occ) for occ, a in state.terms.items())
    assert abs(mean - mean_in) < 1e-10


def test_overlap_at_delay():
    model = OverlapModel(0.9, 100.0)
    assert abs(overlap_at_delay(model, 0.0) - 0.9) < 1e-15
    assert overlap_at_delay(model, 1e5) < 1e-12
    assert abs(overlap_at_delay(model, 100.0) - 0.9 * math.exp(-0.5)) < 1e-12
    with pytest.raises(ValidationError):
        OverlapModel(1.1, 100.0)
    with pytest.raises(ValidationError):
        OverlapModel(0.9, 0.0)


ELEMENT_CASES = {
    "HWP": lambda reg: hwp(reg, "A", 0.4),
    "QWP": lambda reg: qwp(reg, "A", 1.1),
    "phase_shifter": lambda reg: phase_shifter(reg, "A", 0.2, 2.2),
    "PBS": lambda reg: pbs(reg, "A", "R", "E", "F"),
    "loss": lambda reg: loss_channel(reg, "A", 0.35, "L"),
    "overlap_split": lambda reg: overlap_split(reg, "S", 0.8),
}


@pytest.mark.parametrize("build", ELEMENT_CASES.values(), ids=ELEMENT_CASES)
def test_every_element_builds_an_isometry(build):
    reg = make_registry(["A", "R", "E", "F", "L", ("S", True)])
    t = build(reg)
    gram = t.matrix.conj().T @ t.matrix
    assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-12


def test_element_spec_validation():
    reg = make_registry(["A", "L"])
    with pytest.raises(ValidationError):
        loss_channel(reg, "A", 1.2, "L")
    with pytest.raises(ValidationError):
        hwp(reg, "A", math.inf)
