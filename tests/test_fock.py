import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsdist import fock, protocol
from dfsdist.fock import (
    H,
    MATCHED,
    ORTHOGONAL,
    PHI_PLUS,
    PRUNE_THRESHOLD,
    V,
    ConfigurationError,
    FockStateVector,
    Mode,
    ModeTransform,
    PolarizationDensityMatrix,
    UndefinedFidelityError,
    ValidationError,
    apply_transform,
    compose,
    fidelity_to_phi_plus,
    make_registry,
    tensor,
)
from dfsdist.optics import (
    attenuator,
    beamsplitter,
    jones_transform,
    loss_channel,
    overlap_split,
    pbs,
)
from dfsdist.sources import DetectorModel
from helpers import (
    inner_product,
    project_occupation,
    states_allclose,
    trace_distance,
)


def test_make_registry_counts():
    assert make_registry(["A", "B"]).n_modes == 4
    assert make_registry([("R", True)]).n_modes == 4
    assert make_registry([]).n_modes == 0


def test_make_registry_duplicate_label():
    with pytest.raises(ConfigurationError):
        make_registry(["A", "A"])


def test_registry_lookup_stable():
    reg = make_registry([("A", True), "B"])
    for i, mode in enumerate(reg.modes):
        assert reg.index(mode) == i
    with pytest.raises(ConfigurationError):
        reg.index(Mode("Z", H, MATCHED))
    assert reg.temporals("A") == (MATCHED, ORTHOGONAL)
    assert reg.temporals("B") == (MATCHED,)


def test_state_rejects_over_cutoff():
    reg = make_registry(["A"])
    with pytest.raises(ValidationError):
        FockStateVector(reg, 1, {(1, 1): 1.0})


def test_identity_transform_is_noop():
    reg = make_registry(["A", "B"])
    state = FockStateVector(reg, 3, {(1, 0, 1, 0): 0.6, (0, 1, 0, 1): 0.8})
    ident = ModeTransform(reg, (0, 1, 2, 3), (0, 1, 2, 3), np.eye(4))
    assert states_allclose(apply_transform(state, ident), state)


def test_balanced_splitter_single_photon():
    reg = make_registry(["A"])
    state = FockStateVector(reg, 2, {(1, 0): 1.0})
    out = apply_transform(state, beamsplitter(reg, 0, 1, math.pi / 4.0))
    r = 1.0 / math.sqrt(2.0)
    assert abs(out.amplitude((1, 0)) - r) < 1e-12
    assert abs(out.amplitude((0, 1)) - r) < 1e-12


def test_balanced_splitter_bunching():
    # Two indistinguishable photons leave together; the coincidence term
    # vanishes and the pair terms carry opposite signs in this convention.
    reg = make_registry(["A"])
    state = FockStateVector(reg, 2, {(1, 1): 1.0})
    out = apply_transform(state, beamsplitter(reg, 0, 1, math.pi / 4.0))
    assert abs(out.amplitude((1, 1))) < 1e-12
    a20 = out.amplitude((2, 0))
    a02 = out.amplitude((0, 2))
    assert abs(abs(a20) ** 2 - 0.5) < 1e-12
    assert abs(abs(a02) ** 2 - 0.5) < 1e-12
    assert abs(a20 + a02) < 1e-12


def test_non_isometric_matrix_rejected():
    reg = make_registry(["A"])
    with pytest.raises(ValidationError):
        ModeTransform(reg, (0, 1), (0, 1), np.array([[1.0, 0.0], [0.0, 0.5]]))
    # The tolerance is absolute: a scale of 1 + 1e-9 is not an isometry.
    with pytest.raises(ValidationError, match="isometry"):
        ModeTransform(reg, (0, 1), (0, 1), np.eye(2) * (1.0 + 1e-9))


def test_occupied_fresh_output_rejected():
    reg = make_registry(["A", "L"])
    state = FockStateVector(reg, 2, {(1, 0, 1, 0): 1.0})
    with pytest.raises(ValidationError):
        apply_transform(state, loss_channel(reg, "A", 0.5, "L"))


def test_tensor_basics():
    reg = make_registry(["A", "B"])
    one = FockStateVector(reg, 2, {(1, 0, 0, 0): 1.0})
    vac = FockStateVector(reg, 2, {(0, 0, 0, 0): 1.0})
    prod = tensor(one, vac)
    assert states_allclose(prod, one)
    assert states_allclose(tensor(vac, vac), vac)
    with pytest.raises(ValidationError):
        tensor(one, one)


@st.composite
def small_two_label_states(draw):
    reg = make_registry(["A", "B"])
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        occ = tuple(draw(st.integers(0, 2)) for _ in range(2))
        amp = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        if abs(amp) > 1e-6:
            terms[occ] = amp
    if not terms:
        terms[(1, 0)] = 1.0
    return reg, terms


@settings(max_examples=30, deadline=None)
@given(small_two_label_states())
def test_tensor_norm_multiplies(data):
    # Norm factorization checked against direct expansion of the product.
    reg, half = data
    a_terms = {(m, n, 0, 0): amp for (m, n), amp in half.items()}
    b_terms = {(0, 0, m, n): amp for (m, n), amp in half.items()}
    a = FockStateVector(reg, 8, a_terms)
    b = FockStateVector(reg, 8, b_terms)
    prod = tensor(a, b)
    direct = 0.0
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            direct += abs(amp_a * amp_b) ** 2
    assert abs(prod.norm_squared() - direct) < 1e-10
    assert abs(prod.norm_squared() - a.norm_squared() * b.norm_squared()) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.95))
def test_lossless_norm_preserved_and_composition(seed, theta):
    rng = np.random.default_rng(seed)
    reg = make_registry(["A", "B"])
    occs = [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1),
            (0, 0, 2, 0), (0, 0, 0, 0)]
    amps = rng.normal(size=len(occs)) + 1j * rng.normal(size=len(occs))
    amps /= np.linalg.norm(amps)
    state = FockStateVector(reg, 4, dict(zip(occs, amps)))
    t1 = beamsplitter(reg, 0, 2, theta * math.pi)
    t2 = beamsplitter(reg, 1, 3, (1.0 - theta) * math.pi)
    stepwise = apply_transform(apply_transform(state, t1), t2)
    assert abs(stepwise.norm_squared() - 1.0) < 1e-10
    composed = apply_transform(state, compose([t1, t2], "pair"))
    assert states_allclose(stepwise, composed, tol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0), st.integers(0, 3))
def test_loss_dilation_completeness(transmittance, n_photons):
    reg = make_registry(["A", "L"])
    occ = [0] * 4
    occ[0] = n_photons
    state = FockStateVector(reg, 3, {tuple(occ): 1.0})
    out = apply_transform(state, loss_channel(reg, "A", transmittance, "L"))
    loss_idx = reg.index(Mode("L", H, MATCHED))
    total = sum(project_occupation(out, loss_idx, k).norm_squared()
                for k in range(4))
    assert abs(total - 1.0) < 1e-10


def test_coherent_state_covariance_under_loss():
    # A coherent pulse stays an exact product of coherent pulses under loss.
    from dfsdist.sources import CoherentParams, coherent_state

    reg = make_registry(["R", "L"])
    mean = 0.4
    cutoff = 6
    state = coherent_state(CoherentParams(mean, (1.0, 0.0)), reg, cutoff, "R")
    out = apply_transform(state, loss_channel(reg, "R", 0.3, "L"))
    a_sig = math.sqrt(mean * 0.3)
    a_loss = math.sqrt(mean * 0.7)
    idx_r = reg.index(Mode("R", H, MATCHED))
    idx_l = reg.index(Mode("L", H, MATCHED))
    for occ, amp in out.terms.items():
        m, k = occ[idx_r], occ[idx_l]
        expect = (math.exp(-mean / 2.0) * a_sig ** m * a_loss ** k
                  / math.sqrt(math.factorial(m) * math.factorial(k)))
        assert abs(amp - expect) < 1e-12


def test_project_occupation_examples():
    reg = make_registry(["A", "B"])
    state = FockStateVector(reg, 2, {(1, 0, 0, 0): 1.0})
    assert states_allclose(project_occupation(state, 0, 1), state)
    r = 1.0 / math.sqrt(2.0)
    sup = FockStateVector(reg, 2, {(1, 0, 0, 0): r, (0, 0, 1, 0): r})
    kept = project_occupation(sup, 0, 0)
    assert abs(kept.norm_squared() - 0.5) < 1e-12
    assert abs(kept.amplitude((0, 0, 1, 0)) - r) < 1e-12
    with pytest.raises(ValidationError):
        project_occupation(sup, 0, 5)


def test_projection_completeness():
    reg = make_registry(["A"])
    state = FockStateVector(reg, 3, {(1, 0): 0.5, (2, 1): 0.5, (0, 0): 0.5,
                                     (1, 2): 0.5})
    total = sum(project_occupation(state, 0, n).norm_squared()
                for n in range(4))
    assert abs(total - state.norm_squared()) < 1e-12


def _phi_plus_state(reg, cutoff=2):
    r = 1.0 / math.sqrt(2.0)
    ah = reg.index(Mode("A", H, MATCHED))
    av = reg.index(Mode("A", V, MATCHED))
    bh = reg.index(Mode("B", H, MATCHED))
    bv = reg.index(Mode("B", V, MATCHED))
    vac = [0] * reg.n_modes
    hh = list(vac)
    hh[ah] = hh[bh] = 1
    vv = list(vac)
    vv[av] = vv[bv] = 1
    return FockStateVector(reg, cutoff, {tuple(hh): r, tuple(vv): r})


def _two_qubit_state(state):
    """Polarization state of the labels A and B by the protocol's
    tomography, with ideal detectors."""
    det = DetectorModel("D", 1.0, 0.0)
    wiring = protocol._Wiring(state.registry, "A", "B", None, ())
    plan = protocol._Plan(wiring, {"E": det, "G": det})
    return PolarizationDensityMatrix(
        protocol._tomography(plan, protocol._Final(wiring, state)))


def test_reduce_exact_bell_state():
    reg = make_registry(["A", "B"])
    dm = _two_qubit_state(_phi_plus_state(reg))
    assert abs(dm.trace - 1.0) < 1e-12
    assert abs(fidelity_to_phi_plus(dm) - 1.0) < 1e-12


def test_reduce_with_entangled_loss_mode_is_mixed():
    # Which-path information in an undetected mode leaves a mixed pair state.
    reg = make_registry(["A", "B", "L"])
    r = 1.0 / math.sqrt(2.0)
    terms = {}
    occ = [0] * 6
    occ[reg.index(Mode("A", H))] = occ[reg.index(Mode("B", H))] = 1
    terms[tuple(occ)] = r
    occ = [0] * 6
    occ[reg.index(Mode("A", V))] = occ[reg.index(Mode("B", V))] = 1
    occ[reg.index(Mode("L", H))] = 1
    terms[tuple(occ)] = r
    state = FockStateVector(reg, 3, terms)
    dm = _two_qubit_state(state)
    assert abs(dm.trace - 1.0) < 1e-12
    assert np.trace(dm.matrix @ dm.matrix).real < 1.0 - 1e-6
    assert abs(dm.matrix[0, 3]) < 1e-15
    assert np.abs(dm.matrix - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-12


def test_reduce_phase_averaged_superposition_is_diagonal():
    reg = make_registry(["A", "B"])
    acc = np.zeros((4, 4), dtype=complex)
    for n in range(8):
        phase = np.exp(1j * n * math.pi / 4.0)
        state = _phi_plus_state(reg)
        terms = dict(state.terms)
        for occ in list(terms):
            if occ[reg.index(Mode("A", V))]:
                terms[occ] = terms[occ] * phase
        dm = _two_qubit_state(FockStateVector(reg, 2, terms))
        acc += dm.matrix / 8.0
    assert abs(acc[0, 3]) < 1e-15
    assert abs(acc[0, 0] - 0.5) < 1e-12


def test_temporal_components_trace_incoherently():
    reg = make_registry([("A", True), "B"])
    r = 1.0 / math.sqrt(2.0)
    terms = {}
    occ = [0] * 6
    occ[reg.index(Mode("A", H, MATCHED))] = 1
    occ[reg.index(Mode("B", H, MATCHED))] = 1
    terms[tuple(occ)] = r
    occ = [0] * 6
    occ[reg.index(Mode("A", V, ORTHOGONAL))] = 1
    occ[reg.index(Mode("B", V, MATCHED))] = 1
    terms[tuple(occ)] = r
    dm = _two_qubit_state(FockStateVector(reg, 2, terms))
    # Different temporal slots on side A: populations survive, coherence dies.
    assert abs(dm.trace - 1.0) < 1e-12
    assert abs(dm.matrix[0, 3]) < 1e-15
    assert abs(fidelity_to_phi_plus(dm) - 0.5) < 1e-12


def test_fidelity_examples():
    bell = PolarizationDensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()))
    assert abs(fidelity_to_phi_plus(bell) - 1.0) < 1e-12
    mixed = PolarizationDensityMatrix(np.eye(4) / 4.0)
    assert abs(fidelity_to_phi_plus(mixed) - 0.25) < 1e-12
    dephased = PolarizationDensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))
    assert abs(fidelity_to_phi_plus(dephased) - 0.5) < 1e-12
    zero = PolarizationDensityMatrix(np.zeros((4, 4)))
    with pytest.raises(UndefinedFidelityError):
        fidelity_to_phi_plus(zero)


def test_non_hermitian_density_matrix_rejected():
    mat = np.eye(4) / 4.0
    mat[0, 3] = mat[3, 0] = 0.2
    PolarizationDensityMatrix(mat)
    # The tolerance is absolute: 1e-6 of asymmetry is not Hermitian.
    mat[3, 0] += 1e-6
    with pytest.raises(ValidationError, match="Hermitian"):
        PolarizationDensityMatrix(mat)


def test_trace_distance_and_norm_helpers():
    reg = make_registry(["A", "B"])
    state = _phi_plus_state(reg)
    assert abs(state.norm_squared() - 1.0) < 1e-12
    dm = PolarizationDensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()))
    assert trace_distance(dm, dm) < 1e-14
    other = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert abs(trace_distance(dm.matrix, other) - 0.5) < 1e-12


def test_inner_product_conjugate_symmetry():
    reg = make_registry(["A"])
    a = FockStateVector(reg, 2, {(1, 0): 0.6 + 0.2j, (0, 1): 0.3j})
    b = FockStateVector(reg, 2, {(1, 0): 0.1, (0, 1): 0.9 - 0.1j, (1, 1): 0.2})
    assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-12


def test_normalize_zero_state_rejected():
    reg = make_registry(["A"])
    zero = FockStateVector(reg, 2, {})
    with pytest.raises(ValidationError):
        zero.normalized()


def test_tensor_cutoff_policy_mismatch():
    reg = make_registry(["A", "B"])
    a = FockStateVector(reg, 2, {(1, 0, 0, 0): 1.0})
    b = FockStateVector(reg, 3, {(0, 0, 1, 0): 1.0})
    with pytest.raises(ValidationError):
        tensor(a, b)


def test_tensor_records_truncated_weight():
    reg = make_registry(["A", "B"])
    a = FockStateVector(reg, 2, {(2, 0, 0, 0): 1.0})
    b = FockStateVector(reg, 2, {(0, 0, 2, 0): 0.6, (0, 0, 0, 0): 0.8})
    prod = tensor(a, b)
    assert abs(prod.truncated_weight - 0.36) < 1e-12
    assert abs(prod.norm_squared() - 0.64) < 1e-12


def test_is_normalized_flag():
    reg = make_registry(["A"])
    state = FockStateVector(reg, 2, {(1, 0): 1.0})
    assert abs(state.norm_squared() - 1.0) < 1e-12
    projected = project_occupation(
        FockStateVector(reg, 2, {(1, 0): 0.6, (0, 1): 0.8}), 0, 1)
    assert abs(projected.norm_squared() - 0.36) < 1e-12


def test_composition_through_loss_elements():
    reg = make_registry(["A", "G", "W1", "W2"])
    first = attenuator(reg, "A", "G", "W1", 0.7)
    second = attenuator(reg, "G", "G", "W2", 0.5)
    state = FockStateVector(reg, 2, {(1, 0, 0, 0, 0, 0, 0, 0): 1.0})
    stepwise = apply_transform(apply_transform(state, first), second)
    composed = apply_transform(state, compose([first, second], "loss"))
    assert states_allclose(stepwise, composed, tol=1e-12)
    # Transmittances multiply: sqrt(0.7 * 0.5) survives into G.
    survived = stepwise.amplitude(
        tuple(int(i == reg.index(Mode("G", H))) for i in range(8)))
    assert abs(survived - math.sqrt(0.35)) < 1e-12


# --- The array kernel against the term-by-term expansion it replaced. ---

_FACT_SQRT = [math.sqrt(math.factorial(n)) for n in range(40)]


def _reference_apply_transform(state, t):
    """Each term's creation-operator polynomial expanded on its own, with
    the cutoff branch that drops over-cutoff terms.  Returns the kept terms,
    in the order they were first produced, and the dropped weight."""
    in_idx, out_idx = t.input_indices, t.output_indices
    fresh = [i for i in out_idx if i not in in_idx]
    n_out = len(out_idx)
    col_entries = [[(j, t.matrix[j, i]) for j in range(n_out)
                    if abs(t.matrix[j, i]) > 0.0] for i in range(len(in_idx))]
    accum = {}
    for occ, amp in state.terms.items():
        for i in fresh:
            if occ[i]:
                raise ValidationError("output mode must start in vacuum")
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
        poly = {(0,) * n_out: scale}
        for i, k in enumerate(ks):
            for _ in range(k):
                nxt = {}
                for part, coeff in poly.items():
                    for j, mij in col_entries[i]:
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
    kept, dropped = {}, 0.0
    for occ, amp in accum.items():
        if sum(occ) > state.cutoff:
            dropped += abs(amp) ** 2
        elif abs(amp) >= PRUNE_THRESHOLD:
            kept[occ] = amp
    return kept, dropped


# Photons start on A and B; G and W stay free for fresh outputs.
_KERNEL_REG = make_registry([("A", True), ("B", True), ("G", True),
                             ("W", True)])
_KERNEL_KINDS = ["beamsplitter", "pbs", "jones", "attenuator", "loss",
                 "isometry"]


def _random_isometry(reg, rng, n_fresh):
    """A random isometry from some A and B modes onto themselves plus
    ``n_fresh`` fresh G and W modes."""
    inputs = sorted(rng.choice(8, size=int(rng.integers(1, 5)),
                               replace=False).tolist())
    fresh = rng.choice(np.arange(8, 16), size=n_fresh, replace=False).tolist()
    outputs = inputs + fresh
    z = (rng.normal(size=(len(outputs), len(outputs)))
         + 1j * rng.normal(size=(len(outputs), len(outputs))))
    q, _ = np.linalg.qr(z)
    return ModeTransform(reg, tuple(inputs), tuple(outputs),
                         q[:, :len(inputs)])


def _random_transform(reg, kind, rng):
    if kind == "beamsplitter":
        i, j = rng.choice(8, size=2, replace=False).tolist()
        return beamsplitter(reg, i, j, float(rng.uniform(0, math.pi)))
    if kind == "pbs":
        return pbs(reg, "A", "B", "A", "B")
    if kind == "jones":
        q, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        return jones_transform(reg, str(rng.choice(["A", "B"])), q)
    if kind == "attenuator":
        return attenuator(reg, "A", "G", "W", float(rng.uniform(0, 1)))
    if kind == "loss":
        return loss_channel(reg, "B", float(rng.uniform(0, 1)), "W")
    return _random_isometry(reg, rng, int(rng.integers(0, 4)))


def _random_state(reg, rng, cutoff=4, n_terms=12, extreme=True):
    """Terms on the A and B modes, some sharing their input patterns.  With
    ``extreme``, some amplitudes sit at the prune threshold or cancel."""
    terms = {}
    for _ in range(n_terms):
        occ = [0] * reg.n_modes
        for mode in rng.integers(0, 8, size=int(rng.integers(0, cutoff + 1))):
            occ[mode] += 1
        amp = complex(rng.normal(), rng.normal())
        if extreme:
            amp = [amp, PRUNE_THRESHOLD, PRUNE_THRESHOLD * (1 + 1e-12),
                   4 * PRUNE_THRESHOLD * 1j][int(rng.integers(0, 4))]
        terms[tuple(occ)] = amp
    return FockStateVector(reg, cutoff, terms, truncated_weight=0.125)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_KERNEL_KINDS),
       st.booleans(), st.booleans(), st.sampled_from([4, 6]))
def test_array_kernel_matches_term_by_term_expansion(seed, kind, extreme,
                                                     occupy_fresh, cutoff):
    rng = np.random.default_rng(seed)
    t = _random_transform(_KERNEL_REG, kind, rng)
    state = _random_state(_KERNEL_REG, rng, cutoff=cutoff, extreme=extreme)
    fresh = [i for i in t.output_indices if i not in t.input_indices]
    if occupy_fresh and fresh:
        terms = dict(state.terms)
        occ = list(next(iter(terms)))
        occ[int(rng.choice(fresh))] += 1
        if sum(occ) <= state.cutoff:
            terms[tuple(occ)] = 0.5
            state = FockStateVector(_KERNEL_REG, state.cutoff, terms)
            with pytest.raises(ValidationError):
                _reference_apply_transform(state, t)
            with pytest.raises(ValidationError):
                apply_transform(state, t)
            return
    want, dropped = _reference_apply_transform(state, t)
    got = apply_transform(state, t)
    assert dropped == 0.0
    assert list(got.terms) == list(want)
    assert all(abs(got.terms[occ] - amp) <= 1e-14 for occ, amp in want.items())
    assert got.truncated_weight == state.truncated_weight


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_isometries_conserve_photon_number(seed, n_fresh):
    rng = np.random.default_rng(seed)
    t = _random_isometry(_KERNEL_REG, rng, n_fresh)
    state = _random_state(_KERNEL_REG, rng, extreme=False)
    out = apply_transform(state, t)
    assert out.truncated_weight == state.truncated_weight
    assert abs(out.norm_squared() - state.norm_squared()) < 1e-12
    for occ, amp in state.terms.items():
        one = apply_transform(FockStateVector(_KERNEL_REG, 4, {occ: amp}), t)
        assert one.truncated_weight == 0.0
        assert all(sum(o) == sum(occ) for o in one.terms)


# --- A run of elements as one composed transform. ---

# Photons start on A and B; each loss sends them to a dump label of its own.
_TRAIN_REG = make_registry([("A", True), ("B", True), ("L1", True),
                            ("L2", True), ("L3", True)])
_TRAIN_KINDS = ["loss", "overlap", "pbs", "jones", "beamsplitter"]


def _random_train(kinds, rng):
    reg, dumps = _TRAIN_REG, ["L1", "L2", "L3"]
    train = []
    for kind in kinds:
        side = str(rng.choice(["A", "B"]))
        if kind == "loss" and dumps:
            train.append(loss_channel(reg, side, float(rng.uniform(0, 1)),
                                      dumps.pop(0)))
        elif kind == "overlap":
            train.append(overlap_split(reg, side, float(rng.uniform(0, 1))))
        elif kind == "pbs":
            train.append(pbs(reg, "A", "B", "B", "A"))
        elif kind == "jones":
            q, _ = np.linalg.qr(rng.normal(size=(2, 2))
                                + 1j * rng.normal(size=(2, 2)))
            train.append(jones_transform(reg, side, q))
        else:  # a beamsplitter, also in place of a fourth loss
            i, j = rng.choice(8, size=2, replace=False).tolist()
            train.append(beamsplitter(reg, i, j, float(rng.uniform(0, math.pi))))
    return train


def _rows(state):
    return {(tuple(occ), label): amp for occ, label, amp in zip(
        state.occupations.tolist(), state.labels.tolist(),
        state.amplitudes.tolist())}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(_TRAIN_KINDS), min_size=1, max_size=6),
       st.lists(st.integers(-3, 9), min_size=1, max_size=3, unique=True))
def test_composed_train_equals_element_by_element(seed, kinds, labels):
    rng = np.random.default_rng(seed)
    train = _random_train(kinds, rng)
    state = _labelled_state(_TRAIN_REG, rng, labels, extreme=False)
    stepwise = state
    for t in train:
        stepwise = apply_transform(stepwise, t)
    composed = compose(train, "train")
    got = apply_transform(state, composed)
    assert composed.name.startswith("train[")
    assert got.truncated_weight == stepwise.truncated_weight
    # 1e-13 relative per amplitude, but where terms cancel rounding errors
    # scale with the inputs: allow 1e-14 of the largest input amplitude.
    floor = 1e-14 * np.abs(state.amplitudes).max()
    want, have = _rows(stepwise), _rows(got)
    for key in want.keys() | have.keys():
        amp = want.get(key, 0.0)
        assert abs(have.get(key, 0.0) - amp) <= 1e-13 * abs(amp) + floor, key


def test_composed_map_keeps_the_fresh_mode_check():
    reg = make_registry(["A", "L"])
    loss = loss_channel(reg, "A", 0.5, "L")
    train = compose([loss, jones_transform(reg, "A", np.eye(2))], "loss")
    assert train.input_indices == tuple(reg.indices("A"))
    assert train.output_indices == tuple(range(4))
    occupied = FockStateVector(reg, 2, {(1, 0, 1, 0): 1.0})
    with pytest.raises(ValidationError, match="must start in vacuum"):
        apply_transform(occupied, train)
    # A second loss into the same dump modes finds them fed.
    with pytest.raises(ValidationError, match="fed by an earlier element"):
        compose([loss, loss], "loss")


def test_empty_state_stays_empty():
    t = attenuator(_KERNEL_REG, "A", "G", "W", 0.5)
    out = apply_transform(FockStateVector(_KERNEL_REG, 3, {}, 0.25), t)
    assert len(out.terms) == 0 and out.truncated_weight == 0.25


@pytest.fixture
def expansions(monkeypatch):
    """An empty expansion memo for the test, and the patterns that
    _pattern_polynomial expands under it."""
    monkeypatch.setattr(fock, "_EXPANSIONS", fock.OrderedDict())
    expanded = []
    expand = fock._pattern_polynomial

    def counted(pattern, *args):
        expanded.append(tuple(pattern))
        return expand(pattern, *args)

    monkeypatch.setattr(fock, "_pattern_polynomial", counted)
    return expanded


def _pattern_grid_state():
    """36 terms over 9 patterns on A's matched modes."""
    reg = _KERNEL_REG
    a_modes, b_modes = reg.indices("A"), reg.indices("B")
    terms = {}
    for n_a in itertools.product(range(3), repeat=2):
        for b in range(len(b_modes)):
            occ = [0] * reg.n_modes
            occ[a_modes[0]], occ[a_modes[2]] = n_a
            occ[b_modes[b]] = 1
            terms[tuple(occ)] = complex(len(terms) + 1, 1)
    return FockStateVector(reg, 5, terms)


def test_each_distinct_input_pattern_expanded_once(expansions):
    state = _pattern_grid_state()
    t = jones_transform(state.registry, "A",
                        np.array([[0.6, 0.8], [-0.8, 0.6]]))
    apply_transform(state, t)
    distinct = {tuple(occ[i] for i in t.input_indices) for occ in state.terms}
    assert len(expansions) == len(set(expansions)) == len(distinct) == 9
    assert set(expansions) == distinct
    assert len(state.terms) == 36
    apply_transform(state, t)
    assert len(expansions) == 9


def test_second_propagation_expands_nothing(expansions, final_states):
    cfg = replace(protocol.ExperimentConfig(), overlap_s0=0.9)
    first = protocol._final_state(cfg)[1].state
    assert expansions
    expansions.clear()
    final_states.clear()
    again = protocol._final_state(cfg)[1].state
    assert expansions == []
    assert np.array_equal(first.amplitudes, again.amplitudes)


@pytest.mark.parametrize("variant", protocol.VARIANTS)
def test_new_transmittance_or_overlap_expands_nothing(expansions,
                                                     final_states, variant):
    # The train runs at s^2 = T = 1/2 whatever the config's overlap, delay
    # and T, so every later config, propagated again on an empty state
    # memo, finds its expansions in the memo and gets the same state.
    cfg = protocol.ExperimentConfig(variant=variant, overlap_s0=0.9)
    first = protocol._final_state(cfg)[1].state
    expansions.clear()
    for changed in (replace(cfg, transmittance=0.03),
                    replace(cfg, overlap_s0=0.5),
                    replace(cfg, delay_um=40.0, overlap_sigma_um=80.0)):
        final_states.clear()
        again = protocol._final_state(changed)[1].state
        assert expansions == []
        for name in ("occupations", "amplitudes", "labels"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
        assert again.truncated_weight == first.truncated_weight


@pytest.mark.parametrize("seed", range(4))
def test_memo_hits_give_the_bits_of_fresh_expansions(expansions, seed):
    rng = np.random.default_rng(seed)
    state = _random_state(_KERNEL_REG, rng, 4, 40)
    t = _random_isometry(_KERNEL_REG, rng, int(rng.integers(0, 3)))
    outs = []
    for warm_with in (None, len(state.amplitudes) // 2, 0):
        fock._EXPANSIONS.clear()
        if warm_with is not None:
            # A warm memo: none, some or all of the patterns expanded before.
            apply_transform(FockStateVector.from_arrays(
                state.registry, state.cutoff, state.occupations[warm_with:],
                state.amplitudes[warm_with:]), t)
        outs.append(apply_transform(state, t))
    for out in outs[1:]:
        for name in ("occupations", "amplitudes", "labels"):
            assert np.array_equal(getattr(out, name), getattr(outs[0], name))


def test_memo_arrays_are_read_only(expansions):
    state = _pattern_grid_state()
    apply_transform(state, jones_transform(state.registry, "A",
                                           np.array([[0.6, 0.8], [-0.8, 0.6]])))
    (memo,) = fock._EXPANSIONS.values()
    for name in ("ranks", "starts", "sizes", "parts", "codes", "coefs",
                 "scaled"):
        arr = getattr(memo, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_memo_is_bounded_over_a_transmittance_scan(expansions):
    reg = make_registry(["A", "L"])
    state = FockStateVector(reg, 2, {(1, 1, 0, 0): 1.0, (2, 0, 0, 0): 0.5})
    for transmittance in np.linspace(0.01, 0.99, 200):
        t = loss_channel(reg, "A", float(transmittance), "L")
        apply_transform(state, t)
        assert len(fock._EXPANSIONS) <= fock.MEMO_MATRICES
    assert len(fock._EXPANSIONS) == fock.MEMO_MATRICES
    assert next(reversed(fock._EXPANSIONS))[1] == t.matrix.tobytes()


def test_row_keys_distinct_where_mixed_radix_overflows():
    for n_cols, cutoff in ((0, 2), (1, 3), (4, 4), (6, 3)):
        rows = np.array([r for r in itertools.product(range(cutoff + 1),
                                                      repeat=n_cols)
                         if sum(r) <= cutoff], dtype=np.int64)
        keys = fock._row_keys(rows.reshape(len(rows), n_cols), cutoff)
        assert sorted(keys.tolist()) == list(range(math.comb(n_cols + cutoff,
                                                             cutoff)))
    # 24 modes at cutoff 6: 7^24 mixed-radix keys would not fit in int64.
    rng = np.random.default_rng(3)
    rows = np.zeros((5000, 24), dtype=np.int64)
    for row in rows:
        np.add.at(row, rng.integers(0, 24, size=int(rng.integers(0, 7))), 1)
    rows = np.unique(rows, axis=0)
    keys = fock._row_keys(rows, 6)
    assert len(set(keys.tolist())) == len(rows)
    assert 0 <= keys.min() and keys.max() < math.comb(30, 6)


# --- Labelled states: terms that never interfere, kept apart by a label. ---

def _labelled_state(reg, rng, labels, extreme):
    """One random sub-state per label, their rows interleaved at random."""
    parts = [_random_state(reg, rng, extreme=extreme) for _ in labels]
    order = rng.permutation(sum(len(p.amplitudes) for p in parts))
    return FockStateVector.from_arrays(
        reg, 4, np.concatenate([p.occupations for p in parts])[order],
        np.concatenate([p.amplitudes for p in parts])[order], 0.125,
        np.repeat(labels, [len(p.amplitudes) for p in parts])[order])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_KERNEL_KINDS),
       st.booleans(), st.lists(st.integers(-3, 9), min_size=1, max_size=4,
                               unique=True))
def test_labelled_transform_acts_on_each_label_alone(seed, kind, extreme,
                                                     labels):
    rng = np.random.default_rng(seed)
    t = _random_transform(_KERNEL_REG, kind, rng)
    state = _labelled_state(_KERNEL_REG, rng, labels, extreme)
    got = apply_transform(state, t)
    assert got.truncated_weight == state.truncated_weight
    assert set(got.labels.tolist()) <= set(labels)
    for k in labels:
        mine = state.labels == k
        want = apply_transform(FockStateVector.from_arrays(
            _KERNEL_REG, 4, state.occupations[mine], state.amplitudes[mine]), t)
        rows = got.labels == k
        assert np.array_equal(got.occupations[rows], want.occupations)
        assert np.abs(got.amplitudes[rows] - want.amplitudes).max(
            initial=0.0) <= 1e-14


def test_labels_keep_equal_occupations_apart():
    reg = make_registry(["A"])
    state = FockStateVector.from_arrays(reg, 2, [[1, 0], [1, 0]],
                                        [0.6, 0.8], labels=[0, 1])
    out = apply_transform(state, beamsplitter(reg, 0, 1, math.pi / 4.0))
    assert out.labels.tolist() == [0, 0, 1, 1]
    assert out.occupations.tolist() == [[1, 0], [0, 1]] * 2
    assert abs(out.norm_squared() - 1.0) < 1e-12
    with pytest.raises(ValidationError, match="two labels"):
        out.amplitude((1, 0))


def test_tensor_adds_labels_and_drops_them_with_truncated_rows():
    reg = make_registry(["A", "B"])
    a = FockStateVector.from_arrays(reg, 2, [[1, 0, 0, 0], [2, 0, 0, 0]],
                                    [0.6, 0.8], labels=[1, 2])
    b = FockStateVector.from_arrays(reg, 2, [[0, 0, 0, 0], [0, 0, 1, 0]],
                                    [0.8, 0.6], labels=[10, 20])
    prod = tensor(a, b)
    # (2, 0, 1, 0) exceeds the cutoff; its label goes with it.
    assert prod.occupations.tolist() == [[1, 0, 0, 0], [1, 0, 1, 0],
                                         [2, 0, 0, 0]]
    assert prod.labels.tolist() == [11, 21, 12]
    assert np.allclose(prod.amplitudes, [0.48, 0.36, 0.64])
    assert abs(prod.truncated_weight - 0.48 ** 2) < 1e-15


def test_normalizing_and_pruning_keep_labels_aligned():
    reg = make_registry(["A"])
    state = FockStateVector.from_arrays(
        reg, 2, [[1, 0], [0, 1], [1, 1]],
        [3.0, PRUNE_THRESHOLD / 2, 4.0], labels=[7, 8, 9])
    assert state.labels.tolist() == [7, 9]
    assert state.occupations.tolist() == [[1, 0], [1, 1]]
    unit = state.normalized()
    assert unit.labels.tolist() == [7, 9]
    assert np.allclose(unit.amplitudes, [0.6, 0.8])
    assert not unit.labels.flags.writeable
    assert FockStateVector(reg, 2, {(1, 0): 1.0}).labels.tolist() == [0]


def test_cutoff_above_int16_budget_rejected():
    reg = make_registry(["A"])
    state = FockStateVector(reg, fock.MAX_CUTOFF, {(fock.MAX_CUTOFF, 0): 1.0})
    assert state.occupations.dtype == np.int16
    with pytest.raises(ValidationError, match="cutoff"):
        FockStateVector(reg, fock.MAX_CUTOFF + 1, {(1, 0): 1.0})
    # Cast to int16 first, 39000 would wrap to -26536 and pass the cutoff.
    with pytest.raises(ValidationError, match="exceeds cutoff"):
        FockStateVector.from_arrays(reg, fock.MAX_CUTOFF,
                                    np.array([[39000, 0]]), [1.0])
