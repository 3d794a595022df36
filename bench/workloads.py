"""Benchmark workloads: the inputs each one writes from its seed, and the
checks every op's report must pass.

A workload is one ``solvaq`` command on one generated INI config. The
benchmark seed fixes every input the command reads (the sample file of
``sqd-water-dz20-file``) and the ``--seed`` of every op, so two runs with
the same seed do identical work. Geometry and basis are fixed, because the
CASCI checks compare against energies recorded at the seed commit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WATER_XYZ = """3
water, experimental-ish geometry (angstrom)
O   0.0000   0.0000   0.1173
H   0.0000   0.7572  -0.4692
H   0.0000  -0.7572  -0.4692
"""

# casci-water-dz-pcm at the seed commit (c247410): E and G_solv of the
# solvated (8e, 10o) CASCI, as the CLI reports them.
CASCI_DZ_PCM_ENERGY = -76.1156107230337
CASCI_DZ_PCM_G_SOLV_KCAL = -5.262705198905389
CASCI_ENERGY_TOL = 1e-8
CASCI_G_SOLV_TOL_KCAL = 0.05
# The SQD gap to CASCI bounds that tests/test_acceptance.py implies for one
# op: variational (criterion 9a) and exact at full coverage (criterion 4).
# Criterion 6's 1.6 mEh bounds a median over seeds at 2% noise and 1500
# shots per batch; single ops of sqd-water-sto3g-noisy reach 1.57 mEh at the
# seed commit, so that bound would fail ops by chance and is not applied.
VARIATIONAL_TOL = 1e-8
FULL_COVERAGE_TOL = 1e-8
# Neither SQD workload reaches full coverage, and sqd-water-dz20-file has no
# CASCI reference, so each also bounds the correlation energy E - E_RHF of
# every op (Eh). At the seed commit (c247410), 20 ops of
# sqd-water-dz20-file (benchmark seeds 0-9, two ops each) gave -0.1558 to
# -0.1368 (mean -0.1504, sd 0.0044), and 60 ops of sqd-water-sto3g-noisy
# (seeds 200-229) gave -0.04882 to -0.04726 (CASCI: -0.04883). Each window
# reaches more than twice the recorded range above it, where poor subspaces
# lie, so that ops do not fail when the program draws its random numbers
# differently; an op whose matvec drops or doubles a term still fails.
DZ20_CORRELATION_WINDOW = (-0.18, -0.09)
NOISY_CORRELATION_WINDOW = (-0.050, -0.043)

# sqd-water-dz20-file sample generator: RHF occupation of the (8e, 20o)
# space, 0-3 single excitations to distinct virtuals weighted toward the
# lowest ones, then independent bit flips.
DZ20_N_ORB = 20
DZ20_N_OCC = 4
DZ20_SHOTS = 20_000
DZ20_EXCITATION_PROBS = (0.565, 0.25, 0.14, 0.045)
DZ20_VIRTUAL_DECAY = 3.0
DZ20_FLIP_P = 0.02

_COMMON = """\
[system]
geometry = water.xyz
basis = {basis}

[sqd]
workers = 1
{sqd}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    basis: str
    sections: str
    sqd: str = ""
    sample_file: bool = False
    correlation_window: tuple[float, float] | None = None

    def config_text(self) -> str:
        return _COMMON.format(basis=self.basis, sqd=self.sqd) + self.sections


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="casci-water-dz-pcm",
            command="casci",
            why=(
                "solvated full-space reference: ERIs, PCM and the SCRF loop "
                "around 44,100-determinant dense cross-spin matvecs"
            ),
            basis="cc-pvdz",
            sections="""
[solvent]
mode = ief-pcm
points_per_sphere = 302

[active_space]
mode = manual
orbitals = 1-10
electrons = 8
""",
        ),
        Workload(
            name="sqd-water-dz20-file",
            command="sqd",
            why=(
                "sampled (8e, 20o) subspace from a sample file, the regime SQD "
                "targets: the cross-spin matvec dominates, no PCM"
            ),
            basis="cc-pvdz",
            sections="""
[active_space]
mode = manual
orbitals = 1-20
electrons = 8

[sampler]
source = file
path = samples.txt
""",
            sqd="batches = 2\nbatch_size = 500\nrecovery_iterations = 1",
            sample_file=True,
            correlation_window=DZ20_CORRELATION_WINDOW,
        ),
        Workload(
            name="sqd-water-sto3g-noisy",
            command="sqd",
            why=(
                "200k noisy shots on tiny solvated subspaces: S-CORE recovery, "
                "sampling and per-batch SCRF, bypassing ERIs and the big matvec"
            ),
            basis="sto-3g",
            sections="""
[solvent]
mode = ief-pcm
points_per_sphere = 302

[active_space]
mode = manual
orbitals = 1-6
electrons = 8

[sampler]
source = exact
shots = 200000
noise_p = 0.05
""",
            sqd="batches = 4\nbatch_size = 1000\nrecovery_iterations = 3",
            correlation_window=NOISY_CORRELATION_WINDOW,
        ),
    )
}


def op_seed(seed: int, index: int) -> int:
    """The ``--seed`` of op ``index`` in a run with benchmark seed ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1)[0] % 1_000_000)


def dz20_samples(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregated (alpha, beta, count) shots for ``sqd-water-dz20-file``."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    n_vir = DZ20_N_ORB - DZ20_N_OCC
    vir_weight = np.exp(-np.arange(n_vir) / DZ20_VIRTUAL_DECAY)

    def spin_strings() -> np.ndarray:
        k = rng.choice(len(DZ20_EXCITATION_PROBS), size=DZ20_SHOTS,
                       p=DZ20_EXCITATION_PROBS)
        # k distinct holes uniformly, k distinct particles by weighted
        # sampling without replacement (largest exponential keys)
        holes = np.argsort(rng.random((DZ20_SHOTS, DZ20_N_OCC)), axis=1)
        keys = np.log(rng.random((DZ20_SHOTS, n_vir))) / vir_weight
        parts = DZ20_N_OCC + np.argsort(-keys, axis=1)
        rank = np.arange(DZ20_N_OCC)
        take = rank[None, :] < k[:, None]
        flip = np.zeros((DZ20_SHOTS, DZ20_N_ORB), dtype=bool)
        rows = np.nonzero(take)[0]
        flip[rows, holes[take]] = True
        flip[rows, parts[:, : DZ20_N_OCC][take]] = True
        flip ^= rng.random((DZ20_SHOTS, DZ20_N_ORB)) < DZ20_FLIP_P
        ref = np.zeros(DZ20_N_ORB, dtype=bool)
        ref[:DZ20_N_OCC] = True
        bits = (ref[None, :] ^ flip).astype(np.int64)
        return bits @ (1 << np.arange(DZ20_N_ORB, dtype=np.int64))

    alpha = spin_strings()
    beta = spin_strings()
    pairs, counts = np.unique(np.stack([alpha, beta], axis=1), axis=0,
                              return_counts=True)
    return pairs[:, 0], pairs[:, 1], counts


def write_sample_file(path: Path, seed: int) -> None:
    alpha, beta, counts = dz20_samples(seed)
    fmt = f"0{DZ20_N_ORB}b"
    lines = [f"n_orb={DZ20_N_ORB}"]
    lines += [
        f"{format(int(a), fmt)} {format(int(b), fmt)} {int(c)}"
        for a, b, c in zip(alpha, beta, counts)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's config, geometry and sample file; return the
    config path."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "water.xyz").write_text(WATER_XYZ, encoding="utf-8")
    if workload.sample_file:
        write_sample_file(directory / "samples.txt", seed)
    config = directory / "run.ini"
    config.write_text(workload.config_text(), encoding="utf-8")
    return config


def report_name(workload: Workload) -> str:
    return f"{workload.command}_report.json"


def energies(report: dict) -> tuple[float, float]:
    """(E, G_solv in kcal/mol) an op delivers: CASCI or final SQD values."""
    if report["command"] == "casci":
        return report["casci"]["energy_hartree"], report["casci"]["g_solv_kcal"]
    sqd = report["sqd"]
    return sqd["final_energy_hartree"], sqd["final_g_solv_kcal"]


def check_report(workload: Workload, report: dict) -> list[str]:
    """Problems with one op's report; empty when it passes.

    The checks do not depend on how the program consumes its random numbers:
    CASCI is compared with the recorded values; an SQD energy must lie
    between the CASCI reference (when there is one) and the RHF energy, equal
    the reference when the subspace is the whole space, and have a
    correlation energy within the workload's window.
    """
    problems = []
    e_rhf = report["scf"]["energy_hartree"]
    if not report["scf"]["converged"]:
        problems.append("SCF not converged")
    if workload.command == "casci":
        cas = report["casci"]
        if not cas["converged"]:
            problems.append("CASCI not converged")
        if abs(cas["energy_hartree"] - CASCI_DZ_PCM_ENERGY) > CASCI_ENERGY_TOL:
            problems.append(
                f"CASCI energy {cas['energy_hartree']!r} differs from the "
                f"recorded {CASCI_DZ_PCM_ENERGY!r} by more than {CASCI_ENERGY_TOL}"
            )
        if abs(cas["g_solv_kcal"] - CASCI_DZ_PCM_G_SOLV_KCAL) > CASCI_G_SOLV_TOL_KCAL:
            problems.append(
                f"G_solv {cas['g_solv_kcal']!r} kcal/mol differs from the "
                f"recorded {CASCI_DZ_PCM_G_SOLV_KCAL!r} by more than "
                f"{CASCI_G_SOLV_TOL_KCAL}"
            )
        return problems

    sqd = report["sqd"]
    energy = sqd["final_energy_hartree"]
    last = max(row["iteration"] for row in sqd["batches"])
    if not any(r["converged"] for r in sqd["batches"] if r["iteration"] == last):
        problems.append("no batch of the last recovery iteration converged")
    if not energy < e_rhf:
        problems.append(f"SQD energy {energy!r} is not below RHF {e_rhf!r}")
    if workload.correlation_window is not None:
        low, high = workload.correlation_window
        if not low <= energy - e_rhf <= high:
            problems.append(
                f"SQD correlation energy {energy - e_rhf!r} Eh lies outside "
                f"[{low}, {high}]"
            )
    ref = report.get("reference")
    if ref is not None:
        gap = energy - ref["casci_energy_hartree"]
        if gap < -VARIATIONAL_TOL:
            problems.append(f"SQD energy lies {-gap:.3e} Eh below CASCI")
        if sqd["final_d"] == sqd["hilbert_dimension"] and gap > FULL_COVERAGE_TOL:
            problems.append(f"SQD gap {gap:.3e} Eh at full coverage")
    return problems


def load_report(out_dir: Path, workload: Workload) -> dict:
    with open(out_dir / report_name(workload), encoding="utf-8") as fh:
        return json.load(fh)
