"""Non-malleable quantum encryption toolkit.

Builds exact and approximate unitary 2-designs, simulates ciphertext
attacks through their effective plaintext channels, and certifies the
design / non-malleability bounds numerically at small dimension.
"""

__version__ = "0.1.0"

from .channels import (
    KrausChannel,
    apply_channel,
    channel_from_choi,
    choi_inverse_action,
    choi_of,
    constant_channel,
    depolarizing_channel,
    identity_channel,
    random_cptni_channel,
    unitary_channel,
    validate_cptni,
)
from .construct import SamplerConfig, clifford_prime, haar_unitary, recommended_n, sample_design
from .design import (
    CertificationReport,
    IsotropicDecomposition,
    UnitaryEnsemble,
    certify_design,
    ensemble_choi,
    ensemble_entropy,
    entropy_bound,
    frame_potential,
    ideal_choi,
    iso_project,
    max_entangled,
    multiplicative_theta,
    one_design_distance,
    rank_bound,
    support_leak,
)
from .linalg import (
    dagger,
    herm_eig,
    is_hermitian,
    kron,
    maximally_mixed,
    num_rank,
    partial_trace,
    trace_norm,
)
from .nmes import AttackReport, EncryptionScheme, attack_report, effective_channel, pauli_attack
from .weyl import is_prime, pauli_ensemble, weyl, weyl_commutation_phase, weyl_labels
