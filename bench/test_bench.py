"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import solvaq.cli as cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from harness import run_op  # noqa: E402

NOISY = workloads.WORKLOADS["sqd-water-sto3g-noisy"]
# the noisy workload's code path at a tenth of its shots
SMALL = dataclasses.replace(
    NOISY,
    name="small",
    sections=NOISY.sections.replace("shots = 200000", "shots = 20000"),
    sqd="batches = 2\nbatch_size = 1000\nrecovery_iterations = 2",
)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    workloads.write_inputs(w, 5, tmp_path / "a")
    workloads.write_inputs(w, 5, tmp_path / "b")
    workloads.write_inputs(w, 6, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    if w.sample_file:
        assert _files(tmp_path / "a") != _files(tmp_path / "c")
    seeds = [workloads.op_seed(5, i) for i in range(4)]
    assert seeds == [workloads.op_seed(5, i) for i in range(4)]
    assert len(set(seeds)) == 4


def test_sample_file_has_the_target_shots(tmp_path):
    from solvaq.sampling import read_samples

    workloads.write_sample_file(tmp_path / "s.txt", 3)
    samples = read_samples(tmp_path / "s.txt")
    assert samples.n_orb == workloads.DZ20_N_ORB
    assert samples.total == workloads.DZ20_SHOTS


def _casci_report(energy, g_solv):
    return {
        "command": "casci",
        "scf": {"energy_hartree": -76.02, "converged": True},
        "casci": {"energy_hartree": energy, "g_solv_kcal": g_solv,
                  "converged": True},
    }


def _sqd_report(energy, e_ref, final_d=144):
    return {
        "command": "sqd",
        "scf": {"energy_hartree": -74.9685, "converged": True},
        "sqd": {"final_energy_hartree": energy, "final_g_solv_kcal": -3.2,
                "final_d": final_d, "hilbert_dimension": 225,
                "batches": [{"iteration": 0, "converged": True}]},
        "reference": {"casci_energy_hartree": e_ref},
    }


def test_checks_flag_an_energy_off_by_a_microhartree():
    casci = workloads.WORKLOADS["casci-water-dz-pcm"]
    e, g = workloads.CASCI_DZ_PCM_ENERGY, workloads.CASCI_DZ_PCM_G_SOLV_KCAL
    assert workloads.check_report(casci, _casci_report(e, g)) == []
    assert workloads.check_report(casci, _casci_report(e + 1e-6, g))
    assert workloads.check_report(casci, _casci_report(e - 1e-6, g))
    assert workloads.check_report(casci, _casci_report(e, g + 0.06))

    e_ref = -75.0173
    assert workloads.check_report(NOISY, _sqd_report(e_ref + 5e-4, e_ref)) == []
    assert workloads.check_report(NOISY, _sqd_report(e_ref - 1e-6, e_ref))
    assert workloads.check_report(NOISY, _sqd_report(e_ref + 1e-6, e_ref, 225))
    assert workloads.check_report(NOISY, _sqd_report(-74.9, e_ref))
    # below RHF but outside the correlation window
    assert workloads.check_report(NOISY, _sqd_report(e_ref + 0.01, e_ref))


def test_dz20_checks_bound_the_correlation_energy():
    dz20 = workloads.WORKLOADS["sqd-water-dz20-file"]
    e_rhf = -76.0268

    def report(e_corr):
        rep = _sqd_report(e_rhf + e_corr, None, final_d=40_000)
        rep["scf"]["energy_hartree"] = e_rhf
        rep["sqd"]["hilbert_dimension"] = 4845**2
        del rep["reference"]
        return rep

    assert workloads.check_report(dz20, report(-0.150)) == []
    assert workloads.check_report(dz20, report(-0.040))
    assert workloads.check_report(dz20, report(-0.300))


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("root", None, 0.0, 10.0),
        tracing.Span("a", 0, 1.0, 4.0),
        tracing.Span("b", 1, 2.0, 3.0),
        tracing.Span("c", 0, 5.0, 6.0),
        tracing.Span("other", None, 11.0, 12.0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    assert tracing.subtree(spans, 0) == [0, 1, 2, 3]


def test_traced_energies_are_bit_identical(tmp_path):
    config = workloads.write_inputs(SMALL, 1, tmp_path)
    plain = run_op(SMALL, config, 17, tmp_path / "out")
    tracer = tracing.Tracer()
    original = cli.compute_eri
    traced = run_op(SMALL, config, 17, tmp_path / "out", tracer=tracer)
    assert cli.compute_eri is original  # wrappers removed afterwards
    assert plain["energies"] == traced["energies"]
    assert plain["energies"] is not None and not plain["problems"]

    layers = tracing.op_layers(tracer.spans, traced["root"])
    assert set(layers) | {"trace.overhead_s"} == set(tracing.LAYER_UNITS)
    assert layers["engine.batches"] == 4
    assert layers["sampling.shots"] == 20000
    assert layers["hamiltonian.matvecs"] == layers["davidson.expansions"] > 0
    own = tracing.self_times(tracer.spans)
    root = tracer.spans[traced["root"]]
    inside = tracing.subtree(tracer.spans, traced["root"])
    assert sum(own[i] for i in inside) == pytest.approx(root.duration)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NOISY.name, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
