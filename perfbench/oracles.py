"""Independent correctness oracles for the benchmark, in numpy only.

Nothing here calls ``repro.passivity`` or ``repro.statespace``: every
check recomputes its verdict from the raw model arrays (``poles``,
``residues``, ``const``) and the raw scattering samples.  The termination
network enters only through its admittances and source vector, which are
inputs of the test case, not results of the program.

Each ``check_*`` function returns a list of failure messages; an empty
list means the check passed.  :func:`self_test` feeds every check a broken
input and reports the checks that failed to reject it.
"""

from __future__ import annotations

import numpy as np

#: Passivity tolerance of the dense sweep: sigma_max may exceed 1 by this.
SIGMA_TOL = 1e-6
#: Eigenvalues with |Re| <= this fraction of |lambda| are crossing candidates.
IMAG_AXIS_RTOL = 1e-6
#: A candidate is a crossing when some singular value is this close to 1.
CROSSING_TOL = 1e-6
#: Relative symmetry defect allowed in the residues and the constant term.
SYMMETRY_RTOL = 1e-8
#: Relative agreement required between a recomputed figure and the program's.
AGREE_RTOL = 1e-6


def arrays(model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw (poles, residues, const) arrays of a pole-residue model."""
    return (
        np.asarray(model.poles, dtype=complex),
        np.asarray(model.residues, dtype=complex),
        np.asarray(model.const, dtype=float),
    )


def response(poles, residues, const, omega) -> np.ndarray:
    """H(j omega) = sum_n R_n / (j omega - p_n) + D, shape (K, P, P)."""
    s = 1j * np.asarray(omega, dtype=float)
    kernel = 1.0 / (s[:, None] - poles[None, :])
    return np.einsum("kn,npq->kpq", kernel, residues) + const


def sweep_grid(poles, rng: np.random.Generator) -> np.ndarray:
    """Dense grid from 1e-3 x the slowest to 1e3 x the fastest pole.

    A log backbone, a cluster across every resonance, and log-uniform
    random points drawn from ``rng`` (so each seed probes new frequencies).
    """
    mags = np.abs(poles)
    low, high = 1e-3 * float(mags.min()), 1e3 * float(mags.max())
    parts = [
        np.zeros(1),
        np.geomspace(low, high, 4000),
        np.exp(rng.uniform(np.log(low), np.log(high), 1000)),
    ]
    resonant = poles[poles.imag > 0.0]
    if resonant.size:
        offsets = np.linspace(-3.0, 3.0, 41)
        cluster = resonant.imag[:, None] + np.abs(resonant.real)[:, None] * offsets
        parts.append(cluster[cluster > 0.0])
    return np.unique(np.concatenate(parts))


def check_sigma_sweep(model, rng) -> list[str]:
    """sigma_max(H(j omega)) <= 1 on the dense grid."""
    poles, residues, const = arrays(model)
    omega = sweep_grid(poles, rng)
    sigma = np.linalg.svd(
        response(poles, residues, const, omega), compute_uv=False
    )[:, 0]
    worst = int(np.argmax(sigma))
    if sigma[worst] > 1.0 + SIGMA_TOL:
        return [
            f"sweep: sigma_max {sigma[worst]:.6f} at omega {omega[worst]:.4g}"
        ]
    return []


def hamiltonian_crossings(poles, residues, const) -> np.ndarray:
    """Frequencies where a singular value of H(j omega) equals 1.

    Full-size 2n x 2n Hamiltonian of the complex diagonal realization
    A = diag(p_n) (x) I_P, B = 1 (x) I_P, C = [R_1 ... R_N], D = const;
    candidates near the imaginary axis are verified by an SVD.
    """
    n_poles, n_ports = residues.shape[0], residues.shape[1]
    eye = np.eye(n_ports)
    a = np.kron(np.diag(poles), eye)
    b = np.kron(np.ones((n_poles, 1)), eye)
    c = np.concatenate(list(residues), axis=1)
    d = const.astype(complex)
    r_inv = np.linalg.inv(d.conj().T @ d - eye)
    s_inv = np.linalg.inv(d @ d.conj().T - eye)
    bh, ch = b.conj().T, c.conj().T
    m = np.block([
        [a - b @ r_inv @ d.conj().T @ c, -b @ r_inv @ bh],
        [ch @ s_inv @ c, -a.conj().T + ch @ d @ r_inv @ bh],
    ])
    lam = np.linalg.eigvals(m)
    near = (lam.imag > 0.0) & (np.abs(lam.real) <= IMAG_AXIS_RTOL * np.abs(lam))
    omega = np.sort(lam.imag[near])
    if omega.size == 0:
        return omega
    sigma = np.linalg.svd(
        response(poles, residues, const, omega), compute_uv=False
    )
    return omega[np.min(np.abs(sigma - 1.0), axis=1) <= CROSSING_TOL]


def check_hamiltonian(model) -> list[str]:
    """No unit-singular-value crossing, sigma_max(D) < 1, passive at DC."""
    poles, residues, const = arrays(model)
    gain_d = float(np.linalg.norm(const, 2))
    if gain_d >= 1.0:
        return [f"hamiltonian: sigma_max(D) = {gain_d:.6f} >= 1"]
    crossings = hamiltonian_crossings(poles, residues, const)
    if crossings.size:
        return [
            f"hamiltonian: {crossings.size} crossing(s) of sigma = 1, "
            f"first at omega {crossings[0]:.4g}"
        ]
    sigma_dc = float(np.linalg.svd(
        response(poles, residues, const, [0.0]), compute_uv=False
    )[0, 0])
    if sigma_dc > 1.0 + SIGMA_TOL:
        return [f"hamiltonian: sigma_max at DC {sigma_dc:.6f} > 1"]
    return []


def check_stable(model) -> list[str]:
    poles, _, _ = arrays(model)
    worst = float(np.max(poles.real))
    return [] if worst < 0.0 else [f"stability: pole with Re = {worst:.4g}"]


def check_symmetric(model) -> list[str]:
    """Reciprocity: symmetric residues and constant term."""
    _, residues, const = arrays(model)
    failures = []
    for label, block in (("residues", residues), ("const", const)):
        scale = float(np.max(np.abs(block))) or 1.0
        defect = float(np.max(np.abs(block - np.swapaxes(block, -1, -2))))
        if defect > SYMMETRY_RTOL * scale:
            failures.append(
                f"symmetry: {label} defect {defect / scale:.3g} (relative)"
            )
    return failures


def check_model(model, rng) -> list[str]:
    """Every model check: sweep, Hamiltonian, stability, symmetry."""
    return (
        check_stable(model)
        + check_symmetric(model)
        + check_sigma_sweep(model, rng)
        + check_hamiltonian(model)
    )


def rms_error(model, omega, samples) -> float:
    poles, residues, const = arrays(model)
    diff = response(poles, residues, const, omega) - samples
    return float(np.sqrt(np.mean(np.abs(diff) ** 2)))


def target_impedance(samples, y_load, source, port, z0) -> np.ndarray:
    """Z_PDN = ([ (I - S)(I + S)^-1 / z0 + Y_L ]^-1 J)_port (paper eq. 2)."""
    eye = np.eye(samples.shape[1])
    y_block = (eye - samples) @ np.linalg.inv(eye + samples) / z0
    rhs = np.broadcast_to(source[:, None], (samples.shape[0],) + source.shape + (1,))
    return np.linalg.solve(y_block + y_load, rhs)[:, port, 0]


def impedance_errors(model, case, low_band_hz) -> tuple[float, float]:
    """(max, low-band max) relative error of a model's target impedance."""
    poles, residues, const = arrays(model)
    omega = case["omega"]
    z = target_impedance(
        response(poles, residues, const, omega), case["y_load"],
        case["source"], case["port"], case["z0"],
    )
    reference = case["reference"]
    errors = np.abs(z - reference) / np.abs(reference)
    low = omega <= 2.0 * np.pi * low_band_hz
    return float(errors.max()), float(errors[low].max())


def oracle_case(data, termination, port) -> dict:
    """Raw inputs of the impedance oracle for one test case."""
    omega = np.asarray(data.omega, dtype=float)
    case = {
        "omega": omega,
        "samples": np.asarray(data.samples, dtype=complex),
        "y_load": termination.admittance_matrices(omega),
        "source": np.asarray(termination.source_vector(), dtype=float),
        "port": int(port),
        "z0": float(data.z0),
    }
    case["reference"] = target_impedance(
        case["samples"], case["y_load"], case["source"], port, case["z0"]
    )
    return case


def _agree(label: str, mine: float, theirs: float) -> list[str]:
    if abs(mine - theirs) <= AGREE_RTOL * max(abs(theirs), 1e-300):
        return []
    return [f"{label}: recomputed {mine:.9g}, program {theirs:.9g}"]


def check_row(model, row: dict, case, low_band_hz) -> list[str]:
    """A program accuracy row agrees with the oracle's recomputation."""
    z_max, z_low = impedance_errors(model, case, low_band_hz)
    label = row["label"]
    return (
        _agree(f"{label} rms", rms_error(model, case["omega"], case["samples"]),
               row["rms_scattering"])
        + _agree(f"{label} max relZ", z_max, row["max_rel_impedance"])
        + _agree(f"{label} low-band relZ", z_low, row["low_band_rel_impedance"])
    )


def check_weighting_gain(weighted_low: float, standard_low: float) -> list[str]:
    """Paper claim: the weighted cost keeps the low-band error no larger."""
    if weighted_low <= standard_low * (1.0 + 1e-12):
        return []
    return [
        f"weighting: low-band relZ weighted {weighted_low:.6g} > "
        f"standard {standard_low:.6g}"
    ]


def mirrored(model):
    """Broken copy: every pole reflected into the right half-plane."""
    return _Raw(-np.conj(model.poles), model.residues, model.const)


def asymmetric(model):
    """Broken copy: one off-diagonal residue entry perturbed by 1e-3."""
    residues = np.array(model.residues, dtype=complex)
    scale = float(np.max(np.abs(residues)))
    residues[0, 0, -1] += 1e-3 * scale
    return _Raw(model.poles, residues, model.const)


class _Raw:
    """Bare (poles, residues, const) holder for the broken inputs."""

    def __init__(self, poles, residues, const) -> None:
        self.poles = np.asarray(poles, dtype=complex)
        self.residues = np.asarray(residues, dtype=complex)
        self.const = np.asarray(const, dtype=float)


def perturbed_row(row: dict, key: str) -> dict:
    broken = dict(row)
    broken[key] = row[key] * 1.01
    return broken


def self_test(passive, non_passive, row, case, low_band_hz, rng) -> list[str]:
    """Names of the checks that accept a broken input.

    ``non_passive`` is a real non-passive model (the weighted fit before
    enforcement); the remaining broken inputs are one-defect copies of
    the passive model and of its accuracy row.
    """
    probes = {
        "sweep vs non-passive fit": check_sigma_sweep(non_passive, rng),
        "hamiltonian vs non-passive fit": check_hamiltonian(non_passive),
        "stability vs mirrored poles": check_stable(mirrored(passive)),
        "symmetry vs perturbed residue": check_symmetric(asymmetric(passive)),
        "rms vs perturbed row": check_row(
            passive, perturbed_row(row, "rms_scattering"), case, low_band_hz
        ),
        "relZ vs perturbed row": check_row(
            passive, perturbed_row(row, "low_band_rel_impedance"), case,
            low_band_hz,
        ),
    }
    return [name for name, failures in probes.items() if not failures]
