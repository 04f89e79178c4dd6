"""Shared test oracles: batched Haar sampling, Monte-Carlo twirling and loop references.

These deliberately avoid the library's projection formulas and batched
kernels so they can serve as independent cross-checks.
"""

import base64
import math
import tracemalloc

import numpy as np

from qnm.channels import CPTNI_TOL, KRAUS_CUTOFF, KrausChannel
from qnm.construct import _KEY_DECIMALS, _PHASE_PICK_TOL, _clifford_generators, weyl
from qnm.linalg import HERM_TOL, gram_choi, hermitian_defect


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def haar_batch(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` Haar unitaries via QR with diagonal phase fix."""
    z = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    q, r = np.linalg.qr(z)
    diag = np.einsum("bii->bi", r)
    return q * (diag / np.abs(diag))[:, None, :]


def loop_haar(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries drawn key by key: real part, imaginary part, QR, phase fix."""
    out = []
    for _ in range(count):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        out.append(q * (diag / np.abs(diag)))
    return np.array(out)


def ensemble_dict(e, meta: dict | None = None) -> dict:
    """A format-2 ensemble file's whole JSON object, the base64 of the keys' <c16 bytes included:
    the reference for the text ``files.save_ensemble`` streams."""
    out = {
        "format": 2,
        "d": e.d,
        "weights": e.weights.tolist(),
        "unitaries": base64.b64encode(e.unitaries.astype("<c16").tobytes()).decode("ascii"),
    }
    if meta:
        out["meta"] = meta
    return out


def traced_peak(fn):
    """``fn()``'s result, and the peak of Python- and numpy-traced memory while it ran, in bytes
    above the start."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def apply_channel(ch, rho: np.ndarray) -> np.ndarray:
    """sum_m K_m rho K_m^dagger over the Kraus operators of ``ch``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.d, ch.d):
        raise ValueError(f"state has shape {rho.shape}, channel expects ({ch.d}, {ch.d})")
    if not np.all(np.isfinite(rho)):
        raise ValueError("state must be finite")
    return np.sum(ch.kraus_ops @ rho @ ch.kraus_ops.conj().transpose(0, 2, 1), axis=0)


def choi_inverse_action(omega: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Channel action d tr_2((1 (x) rho^T) omega), straight from the Choi operator.

    With omega[i, c, j, a] over (output, reference) x (output, reference), the result's
    (i, j) entry is d sum_{a, c} rho[c, a] omega[i, c, j, a].
    """
    d = len(rho)
    return d * np.einsum("icja,ca->ij", np.asarray(omega).reshape(d, d, d, d), rho)


def channel_from_choi(omega: np.ndarray) -> KrausChannel:
    """Kraus representation recovered from a Choi operator.

    Eigendecomposes d * omega and keeps modes with eigenvalue above ``KRAUS_CUTOFF``; the result
    reproduces d tr_2((1 (x) rho^T) omega) on any input. Raises ValueError if omega is not
    Hermitian within ``linalg.HERM_TOL`` or has an eigenvalue of d * omega below -``CPTNI_TOL``.
    """
    omega = np.asarray(omega, dtype=complex)
    dd = omega.shape[0]
    d = int(round(np.sqrt(dd)))
    if omega.shape != (dd, dd) or d * d != dd:
        raise ValueError(f"Choi operator must be d^2 x d^2, got shape {omega.shape}")
    if not np.all(np.isfinite(omega)):
        raise ValueError("Choi operator must be finite")
    if not hermitian_defect(omega) <= HERM_TOL:
        raise ValueError("Choi operator must be Hermitian")
    vals, vecs = np.linalg.eigh(omega * d)
    if vals[0] < -CPTNI_TOL:
        raise ValueError(f"Choi operator is not PSD (min eigenvalue {vals[0]:.3e})")
    keep = vals > KRAUS_CUTOFF
    ops = (np.sqrt(vals[keep]) * vecs[:, keep]).T.reshape(-1, d, d)
    return KrausChannel(d=d, kraus_ops=ops)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full-rank (by default) density matrix from a Wishart draw."""
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def mc_haar_twirl(inputs, d: int, n_samples: int, seed: int, chunk: int = 2000) -> np.ndarray:
    """Monte-Carlo estimate of the average of (U (x) conj(U)) X (...)^dagger over Haar U.

    Each of the ``n_samples`` Haar draws is stratified over the discrete
    Weyl fiber (whose conditional average is evaluated exactly), which
    keeps the estimator unbiased while cutting its variance. The same
    sample stream is shared by all inputs. A draw V = U (x) conj(U) gives X the fiber coordinates
    <B_w, V X V^dagger> = <V^dagger B_w V, X>, so the draws' V^dagger B_w V are summed first and
    each input is read once.
    """
    xs = np.asarray(inputs, dtype=complex)
    squeeze = xs.ndim == 2
    if squeeze:
        xs = xs[None]
    dd = d * d
    # orthonormal (Frobenius) basis B_w of the Weyl-fiber average's range
    bflat = np.array(
        [np.kron(weyl(d, a, b), weyl(d, a, b).conj()).reshape(-1) for a in range(d) for b in range(d)]
    ) / d
    basis = bflat.reshape(dd, dd, dd)  # [w] = B_w
    rng = philox(seed)
    fiber = np.zeros((dd, dd, dd), dtype=complex)  # [w] = the sum of V^dagger B_w V over the draws
    left = n_samples
    while left > 0:
        b = min(chunk, left)
        u = haar_batch(d, b, rng)
        v = np.einsum("bik,bjl->bijkl", u, u.conj()).reshape(b, dd, dd)
        fiber += np.einsum("bqp,wqr,brs->wps", v.conj(), basis, v, optimize=True)
        left -= b
    coeff = xs.reshape(len(xs), dd * dd) @ fiber.reshape(dd, dd * dd).conj().T  # [n, w]
    out = (coeff @ bflat / n_samples).reshape(xs.shape[0], dd, dd)
    return out[0] if squeeze else out


def max_entangled(d: int) -> np.ndarray:
    """Dense Phi_d = 1/d sum_{ij} |ii><jj| on two d-level systems."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0
    return np.outer(phi, phi) / d


def isotropic_operator(dec, d: int) -> np.ndarray:
    """alpha * Phi_d + beta * (1 - Phi_d): the projection an IsotropicDecomposition describes."""
    vec_one = np.eye(d).reshape(-1)
    phi = np.outer(vec_one, vec_one) / d
    return dec.alpha * phi + dec.beta * (np.eye(d * d) - phi)


def adjoint_frame(x: np.ndarray, d: int) -> np.ndarray:
    """(H (x) H) x (H (x) H) of a d^4 x d^4 ``x`` as one new array: the dense d^2 x d^2
    Householder reflection H taking phi = vec(1)/sqrt(d) to e_0 is applied to each d^2 axis in
    turn. H^2 = 1, so it also maps back."""
    v = np.eye(d * d)[0] - np.eye(d).reshape(-1) / math.sqrt(d)
    big = np.eye(d * d) - 2 * np.outer(v, v) / (v @ v)
    y = np.array(x, dtype=np.result_type(x, np.float64)).reshape((d * d,) * 4)
    for axis in range(4):
        y = np.moveaxis(np.tensordot(big, np.moveaxis(y, axis, 0), axes=1), 0, axis)
    return y.reshape(x.shape)


def haar_diagonal(d: int) -> np.ndarray:
    """h with Omega_haar = diag(h) in the adjoint frame: 1/d^2 on e_0 (x) e_0, 1/(d^2 (d^2 - 1))
    on the traceless block and 0 on the 2 (d^2 - 1) mixed entries."""
    h = np.zeros((d * d, d * d))
    h[0, 0] = 1 / d**2
    h[1:, 1:] = 1 / (d**2 * (d**2 - 1))
    return h.reshape(-1)


def haar_deviation(omega: np.ndarray, d: int):
    """(X, h, leak): X = (H (x) H) (Omega - Omega_haar) (H (x) H) rotated as one whole d^4 x d^4
    copy, with Omega_haar = diag(h) there, and the support leak, the sum of X's diagonal where h
    is 0. Reference for the slab-by-slab ``design._support_deviation``, sharing no code with it."""
    x = adjoint_frame(omega, d)
    h = haar_diagonal(d)
    x.flat[:: len(h) + 1] -= h
    return x, h, float(np.real(np.sum(np.diagonal(x)[h == 0])))


def full_frame_trace_dist(omega: np.ndarray, d: int) -> float:
    """||Omega - Omega_haar||_1 from one eigensolve of the whole d^4 x d^4 adjoint frame, mixed
    rows and columns included."""
    x, _, _ = haar_deviation(omega, d)
    return float(np.sum(np.abs(np.linalg.eigvalsh(x))))


def dense_sandwich_spectrum(omega: np.ndarray, d: int) -> np.ndarray:
    """Ascending eig(A Omega A) on the whole support of Omega_haar, from the full-rotation
    reference: the dense route, whatever the number of keys."""
    x, h, _ = haar_deviation(omega, d)
    s = h[h > 0] ** -0.5
    return np.linalg.eigvalsh(s[:, None] * x[np.ix_(h > 0, h > 0)] * s) + 1


def eigh_theta(omega: np.ndarray, d: int, leak_tol: float = 1e-9):
    """Multiplicative theta from a numerical eigendecomposition of Omega_haar (None on leak).

    Omega_haar is built from the dense projectors of :func:`haar_projectors`, not the library.
    """
    p1, p2 = haar_projectors(d)
    vals, vecs = np.linalg.eigh(p1 / d**2 + p2 / (d**2 * (d**2 - 1)))
    on_support = vals > 1e-12
    v = vecs[:, on_support]
    inside = float(np.real(np.trace(v.conj().T @ omega @ v)))
    if float(np.real(np.trace(omega))) - inside > leak_tol:
        return None
    q = v / np.sqrt(vals[on_support])
    sandwich = q.conj().T @ omega @ q
    ev = np.linalg.eigvalsh((sandwich + sandwich.conj().T) / 2)
    return float(np.max(np.abs(ev - 1)))


def computational_choi(weights, unitaries) -> np.ndarray:
    """Complex Omega in the computational basis: (1/d^2) sum_k p_k vec(W_k) vec(W_k)^dagger.

    W_k = U_k (x) conj(U_k). Reference for ``ensemble_choi``, which returns T Omega T^dagger.
    """
    u = np.asarray(unitaries)
    d = u.shape[-1]
    scaled = np.sqrt(np.asarray(weights))[:, None, None] * u
    rows = np.einsum("kij,kab->kiajb", scaled, u.conj()).reshape(len(u), -1)
    g = rows.T @ rows.conj()
    return (g + g.conj().T) / (2 * d * d)


def single_gram_choi(weights, unitaries) -> np.ndarray:
    """``ensemble_choi`` as one Gram of all N real rows sqrt(p_k) vec(t (U_k (x) conj(U_k)) t^dagger)
    made in one batch by the same entrywise products: the reference for its groups of d^4 keys."""
    u = np.asarray(unitaries)
    d = u.shape[-1]
    up = np.triu(np.ones((d, d)), 1) / math.sqrt(2)
    c1, c2 = np.eye(d) + up + 1j * up.T, up - 1j * up.T
    w = np.einsum("kij,kab->kiajb", np.sqrt(np.asarray(weights))[:, None, None] * u, u.conj())
    w = w * c1.conj() + w.swapaxes(3, 4) * c2.conj()
    w = w * c1[:, :, None, None] + w.swapaxes(1, 2) * c2[:, :, None, None]
    return gram_choi(w.real.reshape(len(u), -1), d * d)


def haar_projectors(d: int):
    """Dense P1 = Phi (x) Phi and P2 = (1 - Phi) (x) (1 - Phi) of Omega_haar."""
    phi = np.eye(d).reshape(-1, 1) / math.sqrt(d)
    phi = phi @ phi.T
    comp = np.eye(d * d) - phi
    return np.kron(phi, phi), np.kron(comp, comp)


def projector_theta(omega: np.ndarray, d: int, leak_tol: float = 1e-9):
    """Theta as max |eig(A Omega A - P1 - P2)| with dense A and projectors (None on leak)."""
    p1, p2 = haar_projectors(d)
    support = p1 + p2
    if float(np.real(np.trace(omega) - np.sum(support * omega))) > leak_tol:
        return None
    a = d * p1 + d * math.sqrt(d * d - 1) * p2
    return float(np.max(np.abs(np.linalg.eigvalsh(a @ omega @ a - support))))


def liouville_t(d: int) -> np.ndarray:
    """The unitary t with t vec(X) = real coordinates of a Hermitian X, built entry by entry.

    Row (i, i) reads X_ii; for i < a, row (i, a) reads sqrt(2) Re X_ia and row (a, i)
    reads sqrt(2) Im X_ia.
    """
    t = np.zeros((d * d, d * d), dtype=complex)
    s = 1 / math.sqrt(2)
    for i in range(d):
        t[i * d + i, i * d + i] = 1
        for a in range(i + 1, d):
            t[i * d + a, [i * d + a, a * d + i]] = s, s
            t[a * d + i, [i * d + a, a * d + i]] = -1j * s, 1j * s
    return t


def eigh_rank(m: np.ndarray, tol: float) -> int:
    """Number of eigenvalues above ``tol``, read off a full eigendecomposition."""
    vals, _ = np.linalg.eigh(m)
    return int(np.count_nonzero(vals > tol))


def loop_effective_kraus(weights, unitaries, kraus_ops) -> list:
    """sqrt(p_k) U_k^dagger K_m U_k key by key, skipping zero-weight keys."""
    ops = []
    for p, u in zip(weights, unitaries):
        if p == 0:
            continue
        for k in kraus_ops:
            ops.append(math.sqrt(p) * (u.conj().T @ k @ u))
    return ops


def loop_attack_reference(weights, unitaries, kraus_ops, d: int):
    """(alpha, beta, residual, Choi operator) of the effective channel, from the per-key loop.

    The Choi operator is the dense complex Gram sum_r vec(E_r) vec(E_r)^dagger / d over the
    loop's operators E_r; the isotropic coordinates and the residual come from Phi_d directly.
    """
    ops = loop_effective_kraus(weights, unitaries, kraus_ops)
    rows = np.array(ops).reshape(len(ops), d * d)
    choi = rows.T @ rows.conj() / d
    phi = np.outer(np.eye(d).reshape(-1), np.eye(d).reshape(-1)) / d
    alpha = float(np.real(np.trace(choi @ phi)))
    beta = (float(np.real(np.trace(choi))) - alpha) / (d * d - 1)
    off = choi - alpha * phi - beta * (np.eye(d * d) - phi)
    return alpha, beta, float(np.sum(np.abs(np.linalg.eigvalsh(off)))), choi


def pairwise_frame_potential(weights, unitaries) -> float:
    """sum_{k,l} p_k p_l |tr(U_k^dagger U_l)|^4 over all N^2 pairs, never building Omega.

    O(N^2 d^2) time; rows are taken in blocks of 1024, so memory is O(1024 N).
    """
    block = 1024
    a = np.asarray(unitaries).reshape(len(weights), -1)
    w = np.asarray(weights)
    total = 0.0
    for i0 in range(0, len(w), block):
        gram = a[i0 : i0 + block].conj() @ a.T  # gram[i, j] = tr(U_i^dagger U_j)
        total += float(np.sum(w[i0 : i0 + block, None] * w[None, :] * np.abs(gram) ** 4))
    return total


def loop_pauli_unitaries(p: int, n: int) -> np.ndarray:
    """The p^(2n) keys of ``pauli_ensemble`` one by one: base-p^2 digit i of the key, a + p b,
    picks W(a, b) for tensor factor i, and the factors are joined by np.kron, first one left."""
    out = np.empty((p ** (2 * n), p**n, p**n), dtype=complex)
    for key in range(len(out)):
        u = np.ones((1, 1), dtype=complex)
        rem = key
        for _ in range(n):
            digit = rem % (p * p)
            rem //= p * p
            u = np.kron(u, weyl(p, digit % p, digit // p))
        out[key] = u
    return out


def loop_canonical_phase(u: np.ndarray) -> np.ndarray:
    """``u`` times |z|/z, z its first entry in C order of modulus above the phase-pick tolerance."""
    flat = u.reshape(-1)
    z = flat[int(np.argmax(np.abs(flat) > _PHASE_PICK_TOL))]
    return u * (abs(z) / z)


def loop_canonical_key(u: np.ndarray) -> bytes:
    """One matrix's key: its phase-fixed real part, rounded, then its imaginary part; -0.0 -> +0.0."""
    v = loop_canonical_phase(u)
    re = np.round(v.real, _KEY_DECIMALS) + 0.0
    im = np.round(v.imag, _KEY_DECIMALS) + 0.0
    return re.tobytes() + im.tobytes()


def loop_clifford_elements(p: int) -> np.ndarray:
    """The Clifford group mod phases by breadth-first closure, one g @ u product and key at a time.

    Frontier elements in order, each times every generator in order; a new class keeps the
    phase-fixed product, and the next frontier keeps the raw one.
    """
    gens = _clifford_generators(p)
    eye = np.eye(p, dtype=complex)
    seen = {loop_canonical_key(eye): loop_canonical_phase(eye)}
    frontier = [eye]
    while frontier:
        fresh = []
        for u in frontier:
            for g in gens:
                v = g @ u
                key = loop_canonical_key(v)
                if key not in seen:
                    seen[key] = loop_canonical_phase(v)
                    fresh.append(v)
        frontier = fresh
    return np.array(list(seen.values()))
