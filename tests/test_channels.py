import dataclasses
import re

import numpy as np
import pytest

from qnm import (
    KrausChannel,
    choi_of,
    constant_channel,
    random_cptni_channel,
    unitary_channel,
    validate_cptni,
    weyl,
)
from qnm.channels import KRAUS_CUTOFF
from qnm.linalg import HERM_TOL

from helpers import (
    apply_channel,
    channel_from_choi,
    choi_inverse_action,
    max_entangled,
    philox,
    random_density,
)


def test_apply_identity():
    rng = philox(30)
    rho = random_density(3, rng)
    assert np.allclose(apply_channel(unitary_channel(np.eye(3)), rho), rho)


def test_apply_depolarizing():
    rng = philox(31)
    rho = random_density(2, rng)
    out = apply_channel(constant_channel(np.eye(2) / 2), rho)
    assert np.allclose(out, np.eye(2) / 2, atol=1e-13)


def test_apply_single_kraus_flip():
    ket0 = np.zeros((2, 2))
    ket0[0, 0] = 1.0
    out = apply_channel(unitary_channel(weyl(2, 1, 0)), ket0)
    want = np.zeros((2, 2))
    want[1, 1] = 1.0
    assert np.allclose(out, want)


def test_apply_channel_trace_non_increasing_and_psd():
    rng = philox(32)
    ch = random_cptni_channel(3, rng)
    rho = random_density(3, rng)
    out = apply_channel(ch, rho)
    assert np.trace(out).real <= np.trace(rho).real + 1e-12
    assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-12


def test_choi_of_identity_is_max_entangled():
    assert np.max(np.abs(choi_of(unitary_channel(np.eye(3))) - max_entangled(3))) <= 1e-14


def test_choi_of_depolarizing_is_tau_tau():
    d = 3
    tau = np.eye(d) / d
    assert np.max(np.abs(choi_of(constant_channel(tau)) - np.kron(tau, tau))) <= 1e-14


def test_choi_of_pauli_x_conjugation():
    x = weyl(2, 1, 0)
    xk = np.kron(x, np.eye(2))
    want = xk @ max_entangled(2) @ xk.conj().T
    got = choi_of(unitary_channel(x))
    assert np.max(np.abs(got - want)) <= 1e-14
    # maximally entangled projector orthogonal to the identity's Choi
    assert abs(np.trace(got @ max_entangled(2))) <= 1e-14


def test_choi_of_constant_channel():
    rng = philox(33)
    eta = random_density(2, rng)
    got = choi_of(constant_channel(eta))
    assert np.max(np.abs(got - np.kron(eta, np.eye(2) / 2))) <= 1e-13


def test_constant_channel_action():
    ch = constant_channel(np.diag([1.0, 0.0]))
    rho1 = np.diag([0.0, 1.0])
    assert np.allclose(apply_channel(ch, rho1), np.diag([1.0, 0.0]), atol=1e-13)


def test_constant_channel_rejects_non_state():
    with pytest.raises(ValueError):
        constant_channel(np.diag([1.0, 1.0]))  # trace 2
    with pytest.raises(ValueError):
        constant_channel(np.diag([1.5, -0.5]))  # negative eigenvalue


@pytest.mark.parametrize(
    "build, arg, name",
    [(unitary_channel, np.asarray(1.0), "u"),
     (constant_channel, np.asarray(1.0), "replacement state eta0"),
     (unitary_channel, np.eye(2)[None], "u")],
    ids=["unitary-scalar", "constant-scalar", "unitary-stack"],
)
def test_channel_builders_name_a_non_square_argument(build, arg, name):
    want = f"{name} must be a square matrix, got shape {arg.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        build(arg)


def test_channel_from_choi_identity():
    ch = channel_from_choi(max_entangled(3))
    rng = philox(34)
    rho = random_density(3, rng)
    assert np.max(np.abs(apply_channel(ch, rho) - rho)) <= 1e-12


def test_channel_from_choi_depolarizing():
    d = 2
    tau = np.eye(d) / d
    ch = channel_from_choi(np.kron(tau, tau))
    rho = random_density(d, philox(35))
    assert np.max(np.abs(apply_channel(ch, rho) - tau)) <= 1e-13


def test_channel_from_choi_rejects_non_psd():
    with pytest.raises(ValueError):
        channel_from_choi(np.diag([1.0, -0.2, 0.1, 0.1]))


def test_channel_from_choi_needs_a_side_of_d_squared():
    with pytest.raises(ValueError, match=re.escape("Choi operator must be d^2 x d^2, got shape (3, 3)")):
        channel_from_choi(np.eye(3))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_choi_round_trip_random_channels(d):
    rng = philox(40 + d)
    for _ in range(50):
        ch = random_cptni_channel(d, rng)
        omega = choi_of(ch)
        again = choi_of(channel_from_choi(omega))
        assert np.max(np.abs(omega - again)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_choi_round_trip_random_psd(d):
    rng = philox(44 + d)
    for _ in range(50):
        omega = random_density(d * d, rng)
        again = choi_of(channel_from_choi(omega))
        assert np.max(np.abs(omega - again)) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_choi_inverse_formula_matches_kraus_action(d):
    rng = philox(48 + d)
    for _ in range(20):
        omega = random_density(d * d, rng)
        rho = random_density(d, rng)
        direct = choi_inverse_action(omega, rho)
        via_kraus = apply_channel(channel_from_choi(omega), rho)
        assert np.max(np.abs(direct - via_kraus)) <= 1e-10


def test_choi_of_is_linear_in_the_channel():
    rng = philox(52)
    d = 3
    ch_a = random_cptni_channel(d, rng)
    ch_b = random_cptni_channel(d, rng)
    q = 0.3
    mixed = KrausChannel(
        d=d,
        kraus_ops=[np.sqrt(q) * k for k in ch_a.kraus_ops]
        + [np.sqrt(1 - q) * k for k in ch_b.kraus_ops],
    )
    want = q * choi_of(ch_a) + (1 - q) * choi_of(ch_b)
    assert np.max(np.abs(choi_of(mixed) - want)) <= 1e-12


def test_validate_cptni_identity():
    rep = validate_cptni(unitary_channel(np.eye(2)))
    assert rep.is_tp and rep.is_tni
    assert rep.defect <= 1e-14


def test_channel_and_report_hold_only_their_fields():
    assert [f.name for f in dataclasses.fields(KrausChannel)] == ["d", "kraus_ops"]
    report = validate_cptni(unitary_channel(np.eye(2)))
    assert [f.name for f in dataclasses.fields(report)] == ["is_tni", "is_tp", "defect"]


def test_validate_cptni_subnormalized():
    rep = validate_cptni(KrausChannel(d=2, kraus_ops=[0.5 * np.eye(2)]))
    assert rep.is_tni and not rep.is_tp
    assert abs(rep.defect - 0.75) <= 1e-14


def test_validate_cptni_violation():
    rep = validate_cptni(KrausChannel(d=2, kraus_ops=[2.0 * np.eye(2)]))
    assert not rep.is_tni and not rep.is_tp


def test_kraus_shape_validation():
    with pytest.raises(ValueError):
        KrausChannel(d=2, kraus_ops=[np.eye(3)])
    with pytest.raises(ValueError, match=r"Kraus operator 1 has shape \(3, 3\)"):
        KrausChannel(d=2, kraus_ops=[np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match=r"Kraus operator 0 has shape \(2, 3\)"):
        KrausChannel(d=2, kraus_ops=[np.ones((2, 3)), np.ones((2, 3))])


def test_kraus_ops_are_stored_as_one_array():
    ch = KrausChannel(d=2, kraus_ops=[np.ones((2, 2)), np.zeros((2, 2)), np.eye(2)])
    assert ch.kraus_ops.shape == (3, 2, 2) and ch.kraus_ops.dtype == complex
    empty = KrausChannel(d=2, kraus_ops=[])
    assert empty.kraus_ops.shape == (0, 2, 2)
    assert np.array_equal(choi_of(empty), np.zeros((4, 4)))
    assert np.array_equal(apply_channel(empty, np.eye(2) / 2), np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_kraus_channel_rejects_non_finite_operators(bad):
    k = np.eye(2, dtype=complex)
    k[0, 1] = bad
    with pytest.raises(ValueError, match="Kraus operators must be finite"):
        KrausChannel(d=2, kraus_ops=[np.eye(2), k])


def test_kraus_channel_tests_entries_when_their_sum_is_not_finite():
    big = np.full((3, 2, 2), 1e308, dtype=complex)  # finite entries whose sum overflows to inf
    with np.errstate(over="ignore"):
        assert not np.isfinite(big.sum())
    assert np.array_equal(KrausChannel(d=2, kraus_ops=big).kraus_ops, big)
    big[2, 1, 0] = complex(np.nan, 0)  # one NaN among them still raises
    with pytest.raises(ValueError, match="Kraus operators must be finite"):
        KrausChannel(d=2, kraus_ops=big)
    cancel = np.array([[[np.inf, 0], [0, 1]], [[-np.inf, 0], [0, 1]]])  # inf - inf is NaN
    with pytest.raises(ValueError, match="Kraus operators must be finite"):
        KrausChannel(d=2, kraus_ops=cancel)


def test_constant_channel_rejects_non_finite_state():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="replacement state must be finite"):
            constant_channel(np.diag([bad, 0.0]))


def _skewed_tau(d: int, defect: float) -> np.ndarray:
    """tau with ``defect`` added to one entry above the diagonal: that much Hermiticity defect."""
    eta = np.eye(d, dtype=complex) / d
    eta[0, 1] += defect
    return eta


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_constant_channel_checks_hermiticity_on_the_state_itself(d):
    # the bound is HERM_TOL on eta, not on eta (x) tau, whose entries are eta's divided by d
    with pytest.raises(ValueError, match=r"^replacement state must be Hermitian and PSD \("):
        constant_channel(_skewed_tau(d, 2 * HERM_TOL))
    assert len(constant_channel(_skewed_tau(d, 0.5 * HERM_TOL)).kraus_ops) == d * d


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_constant_channel_kraus_operators_come_from_the_state_eigenpairs(d):
    for eta in [np.eye(d) / d] + [np.diag(np.eye(d)[j]) for j in range(d)]:
        vals, vecs = np.linalg.eigh(eta)
        want = [np.sqrt(lam) * np.outer(vecs[:, i], np.eye(d)[j])
                for i, lam in enumerate(vals) if lam > KRAUS_CUTOFF for j in range(d)]
        got = constant_channel(eta).kraus_ops
        assert len(got) == np.linalg.matrix_rank(eta) * d
        assert np.max(np.abs(got - np.array(want))) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_constant_channel_choi_operator_is_eta_tensor_tau(d, monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    rng = philox(60 + d)
    for rank in range(1, d + 1):
        eta = random_density(d, rng, rank)
        got = choi_of(constant_channel(eta))
        assert np.max(np.abs(got - np.kron(eta, np.eye(d) / d))) <= 1e-15
    assert shapes == [(d, d)] * d  # one eigh of the state per channel, none of d^2 x d^2


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_apply_channel_rejects_non_finite_state(bad):
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = bad
    with pytest.raises(ValueError, match="state must be finite"):
        apply_channel(unitary_channel(np.eye(2)), rho)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_channel_from_choi_rejects_non_finite_operator(bad):
    omega = max_entangled(2)
    omega[1, 2] = bad
    with pytest.raises(ValueError, match="Choi operator must be finite"):
        channel_from_choi(omega)


def test_apply_channel_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_channel(unitary_channel(np.eye(2)), np.eye(3) / 3)
