"""Non-malleable quantum encryption toolkit.

Builds exact and approximate unitary 2-designs, simulates ciphertext
attacks through their effective plaintext channels, and certifies the
design / non-malleability bounds numerically at small dimension.
"""

__version__ = "0.1.0"

import sys

from .channels import (
    KrausChannel,
    channel_from_choi,
    choi_of,
    constant_channel,
    random_cptni_channel,
    unitary_channel,
    validate_cptni,
)
from .construct import (
    SamplerConfig,
    clifford_prime,
    is_prime,
    pauli_ensemble,
    recommended_n,
    sample_design,
    weyl,
)
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
    multiplicative_theta,
    one_design_distance,
    rank_bound,
)
from .linalg import herm_eig, num_rank, trace_norm
from .nmes import AttackReport, EncryptionScheme, attack_report, effective_channel
sys.modules[f"{__name__}.weyl"] = sys.modules[f"{__name__}.construct"]  # weyl's former module path
