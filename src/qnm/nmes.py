"""Encryption schemes and adversarial attack simulation.

Encryption under key k is conjugation by U_k, decryption by U_k^dagger. An
adversary acting on the ciphertext with a channel Lambda induces the
effective plaintext channel

    Lambda_eff(rho) = sum_k p_k U_k^dagger Lambda(U_k rho U_k^dagger) U_k.

A scheme is non-malleable when every effective channel stays inside the
isotropic cone spanned by the identity and the completely forgetful
channel; the attack report grades the distance to that cone.
"""

from dataclasses import dataclass

import numpy as np

from . import design
from .channels import KrausChannel, choi_of, validate_cptni
from .design import IsotropicDecomposition, UnitaryEnsemble, iso_project, one_design_distance


@dataclass
class EncryptionScheme:
    """A unitary encryption scheme: keys k carry the conjugations by U_k."""

    ensemble: UnitaryEnsemble

    @property
    def d(self) -> int:
        return self.ensemble.d


@dataclass
class AttackReport:
    """Outcome of one adversarial attack against a scheme.

    ``malleability_residual`` is the trace-norm distance of the effective
    channel's Choi operator from its isotropic projection; d times it upper
    bounds the diamond-norm distance. ``scheme_one_design_dist`` flags
    schemes that are not ideal encryption (where the family of reachable
    constant channels need not collapse to the depolarizing one).
    """

    effective_choi: np.ndarray
    decomposition: IsotropicDecomposition
    malleability_residual: float
    diamond_upper_bound: float
    scheme_one_design_dist: float


def effective_channel(
    scheme: EncryptionScheme, adv: KrausChannel, keys: slice = slice(None)
) -> KrausChannel:
    """Kraus form of the plaintext channel induced by an adversary on the ciphertext: the
    sqrt(p_k) U_k^dagger K_m U_k, key-major over the keys of nonzero weight in ``keys`` (all keys
    by default), so the Choi operators of a partition of the keys sum to the whole one's. One GEMM
    gives every U_k^dagger K_m and one batched matmul multiplies each by its U_k, so a call holds
    its output and about two transients of its size; :func:`attack_report` passes one key block."""
    rep = validate_cptni(adv)
    if not rep.is_tni:
        raise ValueError(f"adversary channel is not trace non-increasing (defect {rep.defect:.3e})")
    d = scheme.d
    if adv.d != d:
        raise ValueError(f"adversary acts on dimension {adv.d}, scheme has dimension {d}")
    w = scheme.ensemble.weights[keys]
    u = scheme.ensemble.unitaries[keys][w != 0]
    n, m = len(u), len(adv.kraus_ops)
    kraus = adv.kraus_ops.transpose(1, 0, 2).reshape(d, m * d)  # [j, (m, c)] = K_m[j, c]
    udag = np.sqrt(w[w != 0])[:, None, None] * u.conj().transpose(0, 2, 1)
    left = udag.reshape(n * d, d) @ kraus  # [(k, i), (m, c)]
    prod = left.reshape(n, d * m, d) @ u  # [k, (i, m), e]
    ops = prod.reshape(n, d, m, d).transpose(0, 2, 1, 3).reshape(n * m, d, d)
    return KrausChannel(d=d, kraus_ops=ops)


def attack_report(scheme: EncryptionScheme, adv: KrausChannel) -> AttackReport:
    """Run an attack and grade how far the effective channel leaves the isotropic cone. Its Choi
    operator is summed over the :func:`design.key_blocks` of the keys, the attack's one walk over
    them, so one block of Kraus products is held at a time."""
    d = scheme.d
    blocks = design.key_blocks(scheme.ensemble.size, len(adv.kraus_ops) * d * d)
    omega = sum(choi_of(effective_channel(scheme, adv, block)) for block in blocks)
    decomposition = iso_project(omega, d)
    residual = decomposition.residual
    return AttackReport(
        effective_choi=omega,
        decomposition=decomposition,
        malleability_residual=residual,
        diamond_upper_bound=d * residual,
        scheme_one_design_dist=one_design_distance(scheme.ensemble),
    )
