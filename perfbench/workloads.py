"""Workload inputs and output oracles for the qmix benchmark.

Every workload is a pool of ``qmix`` CLI invocations generated from the
workload seed, each paired with an oracle that checks the written report
without using any qmix code.  Matrix algebra here is deliberately
independent of ``qmix.qmatrix``: the complex-adjoint image is rebuilt
from numpy blocks and the exponential comes straight from scipy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

#: Entrywise tolerance of the evolve oracle on chi(output).
EVOLVE_TOL = 1e-9
#: Tolerance of the scenario oracle on the witness 2|c+ c-|^2.
WITNESS_TOL = 1e-10
#: Shift applied to one output entry by the negative control.
PERTURBATION = 1e-6

EVOLVE_T = 1.0
EVOLVE_STEPS = 200
AUDIT_NMAX = 6
AUDIT_TRIALS = 30


class OracleFailure(Exception):
    """An output that a correct program would not have written."""


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the oracle for the report it writes.

    ``check`` takes the parsed report, raises :class:`OracleFailure` when
    it is wrong and otherwise returns the oracle's numerical error.
    """

    argv: list[str]
    check: Callable[[dict], float]


@dataclass(frozen=True)
class Workload:
    """Request pool of one workload, cycled by the closed loop.

    ``perturb`` edits a correct report in place into the smallest change
    its oracle must reject; the negative control uses it.
    """

    requests: list[Request]
    perturb: Callable[[dict], None]


# ---------------------------------------------------------------------
# independent quaternionic matrix helpers
# ---------------------------------------------------------------------

def chi(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Complex-adjoint image [[alpha, -conj(beta)], [beta, conj(alpha)]]."""
    return np.block([[alpha, -beta.conj()], [beta, alpha.conj()]])


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_density(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-rank improper density V W V^dag for a random quaternionic V.

    Built in chi space, where chi(V W V^dag) = chi(V) diag(w, w) chi(V)^dag,
    and read back from the left block column.
    """
    weights = rng.uniform(0.2, 1.0, size=n)
    image = chi(_ginibre(rng, n), _ginibre(rng, n))
    c = (image * np.concatenate([weights, weights])) @ image.conj().T
    alpha, beta = c[:n, :n], c[n:, :n]
    alpha = (alpha + alpha.conj().T) / 2
    beta = (beta - beta.T) / 2
    trace = float(np.trace(alpha).real)
    return alpha / trace, beta / trace


def random_generator(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Anti-hermitian quaternionic H of unit Frobenius norm, beta != 0."""
    ga, gb = _ginibre(rng, n), _ginibre(rng, n)
    alpha = (ga - ga.conj().T) / 2
    beta = (gb + gb.T) / 2
    norm = np.sqrt(np.linalg.norm(alpha) ** 2 + np.linalg.norm(beta) ** 2)
    return alpha / norm, beta / norm


def _block_lists(block: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in block]


def write_matrix(path: str, alpha: np.ndarray, beta: np.ndarray) -> None:
    n, m = alpha.shape
    obj = {"rows": n, "cols": m, "alpha": _block_lists(alpha), "beta": _block_lists(beta)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def read_matrix(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.asarray(obj["alpha"], dtype=np.float64)
    alpha = alpha[..., 0] + 1j * alpha[..., 1]
    if "beta" in obj:
        beta = np.asarray(obj["beta"], dtype=np.float64)
        beta = beta[..., 0] + 1j * beta[..., 1]
    else:
        beta = np.zeros_like(alpha)
    if alpha.shape != (obj["rows"], obj["cols"]) or beta.shape != alpha.shape:
        raise OracleFailure(f"matrix shape {alpha.shape} does not match its header")
    return alpha, beta


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------

def _evolve(method: str, n: int, pool: int, rng, workdir: str, out: str) -> Workload:
    requests = []
    for k in range(pool):
        rho = random_density(rng, n)
        gen = random_generator(rng, n)
        state_path = os.path.join(workdir, f"state{k}.json")
        gen_path = os.path.join(workdir, f"gen{k}.json")
        write_matrix(state_path, *rho)
        write_matrix(gen_path, *gen)
        step = scipy.linalg.expm(-EVOLVE_T * chi(*gen))
        expected = step @ chi(*rho) @ step.conj().T

        def check(report: dict, expected=expected) -> float:
            error = float(np.abs(chi(*read_matrix(report)) - expected).max())
            if not error <= EVOLVE_TOL:
                raise OracleFailure(f"chi(output) off by {error:.3e} > {EVOLVE_TOL:.0e}")
            return error

        argv = [
            "evolve", state_path, "--gen", gen_path,
            "--t", repr(EVOLVE_T), "--steps", str(EVOLVE_STEPS),
            "--method", method, "--output", out,
        ]
        requests.append(Request(argv, check))

    def perturb(report: dict) -> None:
        report["alpha"][0][0][0] += PERTURBATION

    return Workload(requests, perturb)


def _audit(rng, out: str, pool: int = 4096) -> Workload:
    def make(seed: int) -> Request:
        def check(report: dict) -> float:
            if (report["trials"], report["n_max"], report["seed"]) != (AUDIT_TRIALS, AUDIT_NMAX, seed):
                raise OracleFailure("report echoes the wrong trials, n_max or seed")
            for row in report["checks"]:
                if row["attempts"] != AUDIT_TRIALS or row["failures"] != 0:
                    raise OracleFailure(
                        f"{row['name']}: {row['attempts']} attempts, {row['failures']} failures"
                    )
            if report["passed"] is not True or len(report["checks"]) != 4:
                raise OracleFailure("audit report does not pass all four checks")
            return 0.0

        argv = [
            "check-props", "--nmax", str(AUDIT_NMAX), "--trials", str(AUDIT_TRIALS),
            "--seed", str(seed), "--output", out,
        ]
        return Request(argv, check)

    def perturb(report: dict) -> None:
        report["checks"][0]["attempts"] -= 1

    seeds = rng.integers(0, 2**31 - 1, size=pool)
    return Workload([make(int(s)) for s in seeds], perturb)


def _scenario(rng, out: str, pool: int = 256) -> Workload:
    def make(c_plus: complex, c_minus: complex, theta: float, phi: float) -> Request:
        witness = 2.0 * abs(c_plus * c_minus) ** 2

        def check(report: dict) -> float:
            inputs = report["inputs"]
            if inputs["c_plus"] != [c_plus.real, c_plus.imag] or inputs["c_minus"] != [
                c_minus.real, c_minus.imag
            ]:
                raise OracleFailure("report echoes the wrong amplitudes")
            if report["passed"] is not True:
                raise OracleFailure("scenario report does not pass")
            error = abs(report["quaternionic_discriminator"]["on_improper"] - witness)
            if not error <= WITNESS_TOL:
                raise OracleFailure(f"witness off 2|c+ c-|^2 by {error:.3e}")
            return error

        # --flag=value: argparse reads a value with a leading '-' as an option.
        argv = [
            "scenario",
            f"--cplus={c_plus.real!r},{c_plus.imag!r}",
            f"--cminus={c_minus.real!r},{c_minus.imag!r}",
            f"--nhat={theta!r},{phi!r}",
            "--output", out,
        ]
        return Request(argv, check)

    requests = []
    for _ in range(pool):
        mix, p1, p2 = rng.uniform(0.0, np.pi / 2), rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)
        c_plus = complex(np.cos(mix) * np.exp(1j * p1))
        c_minus = complex(np.sin(mix) * np.exp(1j * p2))
        requests.append(make(c_plus, c_minus, rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi)))

    def perturb(report: dict) -> None:
        report["quaternionic_discriminator"]["on_improper"] += PERTURBATION

    return Workload(requests, perturb)


POOLS = {
    "evolve-propagator": lambda rng, workdir, out: _evolve("propagator", 32, 8, rng, workdir, out),
    "evolve-rk4": lambda rng, workdir, out: _evolve("rk4", 4, 64, rng, workdir, out),
    "audit": lambda rng, workdir, out: _audit(rng, out),
    "scenario": lambda rng, workdir, out: _scenario(rng, out),
}


def build(name: str, seed: int, workdir: str, out: str) -> Workload:
    """Generate the request pool of workload ``name`` from ``seed``."""
    return POOLS[name](np.random.default_rng(seed), workdir, out)
