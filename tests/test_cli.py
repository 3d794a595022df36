"""Command-line driver: happy paths, report contents, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvaq.cli as cli
from solvaq.active_space import ActiveSpaceSpec
from solvaq.cli import main
from solvaq.errors import ParseError
from solvaq.pcm import CavityConfig, DielectricParams, PCMContext
from solvaq.sampling import read_samples
from solvaq.scf import SCFConfig
from solvaq.sqd import SQDConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = Path(__file__).resolve().parent.parent / "README.md"
STO3G = Path(cli.__file__).parent / "data" / "basis" / "sto-3g.bas"


def _water_ini(tmp_path, extra="", solvent="none"):
    text = f"""
[system]
geometry = {CONFIGS / 'water.xyz'}

[solvent]
mode = {solvent}

[active_space]
mode = manual
orbitals = 1-6
electrons = 8
{extra}
"""
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def _h2_ini(tmp_path, extra=""):
    text = f"""
[system]
geometry = {CONFIGS / 'h2.xyz'}
unit = bohr
{extra}
"""
    path = tmp_path / "h2.ini"
    path.write_text(text)
    return path


# --- happy paths ----------------------------------------------------------------


def test_scf_command(tmp_path, capsys):
    rc = main(["scf", "--config", str(_water_ini(tmp_path)), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "scf_report.json").read_text())
    assert report["command"] == "scf"
    assert report["scf"]["converged"] is True
    assert report["scf"]["energy_hartree"] == pytest.approx(-74.96302313, abs=1e-6)
    assert "SCF energy" in capsys.readouterr().out


def test_casci_command_h2(tmp_path):
    rc = main(["casci", "--config", str(_h2_ini(tmp_path)), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "casci_report.json").read_text())
    assert report["casci"]["energy_hartree"] == pytest.approx(-1.1373, abs=1e-3)
    assert report["casci"]["d"] == 4
    assert report["active_space"]["hilbert_dimension"] == 4


def test_casci_solvated_reports_g_solv(tmp_path):
    ini = _water_ini(tmp_path, solvent="ief-pcm")
    rc = main(["casci", "--config", str(ini), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "casci_report.json").read_text())
    assert report["casci"]["g_solv_kcal"] < 0
    assert report["system"]["epsilon"] == pytest.approx(78.3553)


def test_sqd_command_gas(tmp_path):
    extra = "\n[sampler]\nshots = 2000\n\n[sqd]\nbatches = 2\nbatch_size = 600\nseed = 5\n"
    ini = _water_ini(tmp_path, extra=extra)
    rc = main(["sqd", "--config", str(ini), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "sqd_report.json").read_text())
    sqd = report["sqd"]
    assert sqd["hilbert_dimension"] == 225
    assert sqd["final_d"] <= 225
    assert report["reference"]["casci_energy_hartree"] == pytest.approx(
        -75.0125001, abs=1e-5
    )
    # exact sampler, no noise: the subspace energy sits on or above the
    # reference but within a few mEh for 1200 total shots
    gap = sqd["final_energy_hartree"] - report["reference"]["casci_energy_hartree"]
    assert -1e-9 <= gap < 5e-3
    assert sqd["metadata"]["master_seed"] == 5


def test_sqd_seed_and_workers_overrides(tmp_path):
    extra = "\n[sampler]\nshots = 400\n\n[sqd]\nbatches = 2\nbatch_size = 100\nseed = 5\n"
    ini = _water_ini(tmp_path, extra=extra)
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["sqd", "--config", str(ini), "--out", str(out1)]) == 0
    assert main(["sqd", "--config", str(ini), "--seed", "99", "--out", str(out2)]) == 0
    assert main(
        ["sqd", "--config", str(ini), "--workers", "2", "--out", str(out3)]
    ) == 0
    r1 = json.loads((out1 / "sqd_report.json").read_text())
    r2 = json.loads((out2 / "sqd_report.json").read_text())
    r3 = json.loads((out3 / "sqd_report.json").read_text())
    assert r2["sqd"]["metadata"]["master_seed"] == 99
    assert r1["sqd"]["metadata"]["master_seed"] == 5
    # worker count must not change the numbers
    assert r3["sqd"]["final_energy_hartree"] == r1["sqd"]["final_energy_hartree"]
    assert r3["sqd"]["metadata"]["workers"] == 2


def test_sqd_report_deterministic(tmp_path):
    extra = "\n[sampler]\nshots = 300\n\n[sqd]\nbatches = 2\nbatch_size = 80\n"
    ini = _water_ini(tmp_path, extra=extra)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["sqd", "--config", str(ini), "--out", str(out1)]) == 0
    assert main(["sqd", "--config", str(ini), "--out", str(out2)]) == 0
    a = json.loads((out1 / "sqd_report.json").read_text())
    b = json.loads((out2 / "sqd_report.json").read_text())
    a.pop("wall_time_seconds"), b.pop("wall_time_seconds")
    assert a == b


def test_sqd_file_source(tmp_path):
    samples = tmp_path / "shots.txt"
    samples.write_text(
        "n_orb=2\n01 01 40\n01 10 30\n10 01 20\n10 10 10\n"
    )
    extra = (
        "\n[active_space]\nmode = full\n"
        f"\n[sampler]\nsource = file\npath = {samples}\n"
        "\n[sqd]\nbatches = 1\nbatch_size = 100\n"
    )
    ini = _h2_ini(tmp_path, extra=extra)
    rc = main(["sqd", "--config", str(ini), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "sqd_report.json").read_text())
    assert report["sampler"]["source"] == "file"
    assert "reference" not in report
    # full coverage: subspace energy equals full CI
    assert report["sqd"]["final_energy_hartree"] == pytest.approx(-1.1373, abs=1e-3)
    assert report["sqd"]["final_d"] == 4


def test_sweep_command(tmp_path):
    extra = (
        "\n[sampler]\nshots = 100\n"
        "\n[sqd]\nbatches = 2\nbatch_size = 10\nseed = 3\n"
        "\n[sweep]\nshots = 40, 150\n"
    )
    ini = _water_ini(tmp_path, extra=extra)
    rc = main(["sweep", "--config", str(ini), "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "sweep.csv"
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["shots", "d", "E_sqd_hartree", "E_ref_hartree", "dE_kcal", "gsolv_kcal"]
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["40", "150"]
    # d grows (or holds) with the shot budget; dE is variational
    assert int(rows[2][1]) >= int(rows[1][1])
    for row in rows[1:]:
        assert float(row[4]) >= -1e-6  # dE_kcal
        # kcal column is exactly hartree * 627.5095
        de = (float(row[2]) - float(row[3])) * 627.5095
        assert float(row[4]) == pytest.approx(de, abs=1e-9)
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert len(report["rows"]) == 2


def test_sweep_solves_the_reference_once(tmp_path, monkeypatch):
    """A 2-row sweep makes one full-space solve, and each row equals the sqd
    command run alone at that batch size (which solves its own reference)."""
    built = []
    real_full_space = cli.full_space
    monkeypatch.setattr(
        cli, "full_space", lambda *args: built.append(args) or real_full_space(*args)
    )
    sqd = "\n[sqd]\nbatches = 2\nbatch_size = {}\nseed = 3\n"
    ini = _water_ini(
        tmp_path, extra="\n[sampler]\nshots = 100\n" + sqd.format(10)
        + "\n[sweep]\nshots = 40, 150\n"
    )
    assert main(["sweep", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert len(built) == 1
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        batch_size = int(row[0])
        alone = tmp_path / f"alone{batch_size}"
        alone.mkdir()
        ini = _water_ini(
            alone, extra=f"\n[sampler]\nshots = {2 * batch_size}\n"
            + sqd.format(batch_size)
        )
        assert main(["sqd", "--config", str(ini), "--out", str(alone)]) == 0
        report = json.loads((alone / "sqd_report.json").read_text())
        assert int(row[1]) == report["sqd"]["final_d"]
        assert float(row[2]) == report["sqd"]["final_energy_hartree"]
        assert float(row[3]) == report["reference"]["casci_energy_hartree"]


# --- failure modes ----------------------------------------------------------------


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["scf", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "nope.ini" in capsys.readouterr().err


def test_unknown_section_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[mystery]\nx = 1\n")
    assert main(["scf", "--config", str(ini)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[system]\ngeometry = {CONFIGS / 'water.xyz'}\nflavor = mint\n")
    assert main(["scf", "--config", str(ini)]) == 2
    assert "flavor" in capsys.readouterr().err


def test_missing_geometry_file_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[system]\ngeometry = gone.xyz\n")
    assert main(["scf", "--config", str(ini)]) == 2
    assert "gone.xyz" in capsys.readouterr().err


def test_malformed_geometry_exits_2(tmp_path, capsys):
    xyz = tmp_path / "broken.xyz"
    xyz.write_text("2\n\nH 0 0 0\n")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[system]\ngeometry = {xyz}\n")
    assert main(["scf", "--config", str(ini)]) == 2
    assert "line" in capsys.readouterr().err


def test_scf_nonconvergence_exits_1(tmp_path, capsys):
    extra = "\n[scf]\nmax_iterations = 2\nenergy_tol = 1e-15\ndiis_tol = 1e-15\n"
    ini = _water_ini(tmp_path, extra=extra)
    rc = main(["scf", "--config", str(ini), "--out", str(tmp_path)])
    assert rc == 1
    # diagnostics still land in the report
    report = json.loads((tmp_path / "scf_report.json").read_text())
    assert report["scf"]["converged"] is False
    assert len(report["history"]) == 2


@pytest.mark.parametrize("command", ["casci", "sqd", "sweep"])
def test_unconverged_scf_is_refused_before_the_active_space(
    tmp_path, capsys, monkeypatch, command
):
    """casci, sqd and sweep exit 1, as scf does, when the SCF stops
    unconverged, and build no active space from its orbitals. One iteration
    can never converge (the energy change needs two), whereas a tiny
    ``diis_tol`` is met once the commutator comes out exactly zero, as it
    does for H2."""

    def refuse(*args, **kwargs):
        raise AssertionError("active space built from an unconverged SCF")

    monkeypatch.setattr(cli, "select_active_space", refuse)
    extra = "\n[scf]\nmax_iterations = 1\n[sweep]\nshots = 5, 10\n"
    ini = _h2_ini(tmp_path, extra=extra)
    assert main([command, "--config", str(ini), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "SCF did not converge in 1 iterations" in err
    assert err.strip().splitlines()[-1].startswith("error:")


def test_solvated_problem_reuses_the_scf_reaction_field(tmp_path, monkeypatch):
    """The problem starts from the SCF's last reaction field: building it
    makes no PCM solve of its own, and that operator equals a fresh solve of
    the SCF density."""
    solve = PCMContext.solve
    calls = []

    def counted(self, density):
        calls.append(density)
        return solve(self, density)

    monkeypatch.setattr(PCMContext, "solve", counted)
    ini = _h2_ini(tmp_path, extra="\n[solvent]\nmode = ief-pcm\n")
    pipe = cli.Pipeline(cli.RunConfig(ini))
    problem = pipe.problem()
    assert len(calls) == pipe.scf.n_iterations
    fresh = solve(pipe.pcm, pipe.scf.density).operator
    assert np.array_equal(problem.scf_operator.matrix, fresh.matrix)
    assert problem.scf_operator.energy == fresh.energy


@pytest.mark.parametrize("separator", ["\x0c", "\u2028"])
def test_error_message_stays_on_one_line(tmp_path, capsys, separator):
    """A line separator inside a file name does not split the error line."""
    ini = tmp_path / "run.ini"
    ini.write_text(f"[system]\ngeometry = a{separator}b.xyz\n", encoding="utf-8")
    assert main(["scf", "--config", str(ini), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "file not found" in err and "b.xyz" in err
    assert len(err.splitlines()) == 1


def test_casci_capacity_guard_exits_2(tmp_path, capsys):
    ini = tmp_path / "big.ini"
    ini.write_text(
        f"[system]\ngeometry = {CONFIGS / 'water.xyz'}\nbasis = cc-pvdz\n"
    )
    rc = main(["casci", "--config", str(ini), "--out", str(tmp_path)])
    assert rc == 2
    assert "sqd" in capsys.readouterr().err


def test_sweep_needs_two_shot_counts(tmp_path, capsys):
    extra = "\n[sweep]\nshots = 100\n"
    ini = _water_ini(tmp_path, extra=extra)
    assert main(["sweep", "--config", str(ini)]) == 2


def test_file_source_orbital_mismatch_exits_2(tmp_path, capsys):
    samples = tmp_path / "shots.txt"
    samples.write_text("n_orb=3\n011 011 5\n")
    extra = f"\n[sampler]\nsource = file\npath = {samples}\n"
    ini = _water_ini(tmp_path, extra=extra)
    assert main(["sqd", "--config", str(ini)]) == 2
    assert "orbitals" in capsys.readouterr().err.lower()


def _assert_refused_without_allocating(argv, capsys):
    """Exit 2 with one ``error:`` line, and no per-shot array on the way:
    3e9 shots would need tens of GiB."""
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "shot cap" in err[0]
    assert peak < 64 * 2**20


def test_sample_file_over_the_shot_cap_exits_2(tmp_path, capsys):
    samples = tmp_path / "shots.txt"
    samples.write_text("n_orb=2\n01 01 3000000000\n")
    ini = _h2_ini(tmp_path, extra=f"\n[sampler]\nsource = file\npath = {samples}\n")
    _assert_refused_without_allocating(["sqd", "--config", str(ini)], capsys)


@pytest.mark.parametrize("command,section", [
    ("sqd", "[sampler]\nshots = 3000000000"),
    ("sweep", "[sweep]\nshots = 1000000000, 100"),
])
def test_exact_source_over_the_shot_cap_exits_2(tmp_path, capsys, command, section):
    ini = _h2_ini(tmp_path, extra=f"\n{section}\n")
    _assert_refused_without_allocating([command, "--config", str(ini)], capsys)


_SAMPLE_FILE = st.one_of(
    st.binary(),
    st.text().map(str.encode),
    st.builds(
        str.__add__,
        st.sampled_from(
            ["", "n_orb=2\n", "# c\nn_orb=2\n", "n_orb=64\n", "n_orb=0\n", "n_orb=x\n"]
        ),
        st.text(alphabet="01 \t\r\n#x-9"),
    ).map(str.encode),
)


@settings(max_examples=60, deadline=None)
@given(content=_SAMPLE_FILE)
def test_sample_file_parses_or_exits_2(tmp_path_factory, content):
    """Any sample file either parses or raises ParseError, and the sqd
    command on a file that does not parse exits 2 with a message."""
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "shots.txt"
    path.write_bytes(content)
    try:
        read_samples(path)
    except ParseError:
        ini = _h2_ini(work, extra=(
            "\n[active_space]\nmode = full\n"
            f"\n[sampler]\nsource = file\npath = {path}\n"
        ))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["sqd", "--config", str(ini), "--out", str(work)]) == 2
        assert err.getvalue().startswith("error:")


def _one_error_line(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("kind", [None, "config", "geometry", "basis"])
def test_non_utf8_input_file_exits_2(tmp_path, capsys, kind):
    """One non-UTF-8 byte in a comment of any input file is a parse error,
    not a traceback; without it the same files run."""
    xyz, bas, ini = tmp_path / "h2.xyz", tmp_path / "mine.bas", tmp_path / "run.ini"
    files = {
        "geometry": (xyz, b"2\nH2%b\nH 0 0 0\nH 0 0 1.4\n"),
        "basis": (bas, b"!%b\n" + STO3G.read_bytes()),
        "config": (
            ini,
            b"#%b\n"
            + f"[system]\ngeometry = {xyz}\nunit = bohr\nbasis = {bas}\n".encode(),
        ),
    }
    for name, (path, template) in files.items():
        path.write_bytes(template % (b" \xff" if name == kind else b""))
    rc = main(["scf", "--config", str(ini), "--out", str(tmp_path)])
    if kind is None:
        assert rc == 0
    else:
        assert rc == 2
        assert _one_error_line(capsys)


@pytest.fixture
def no_integrals(monkeypatch):
    """Fail any run that gets as far as the one-electron integrals."""
    def refuse(*args):
        raise AssertionError("the run reached the integrals")
    monkeypatch.setattr(cli, "compute_one_electron", refuse)


@pytest.mark.parametrize(
    "command,section,setting",
    [
        ("scf", "scf", "max_iterations = 0"),
        ("scf", "scf", "energy_tol = nan"),
        ("scf", "scf", "diis_tol = -1e-7"),
        ("scf", "solvent", "epsilon = nan"),
        ("scf", "solvent", "radius_scale = inf"),
        ("casci", "solvent", "radius_scale = 1e300"),
        ("casci", "solvent", "radius_scale = 1e-300"),
        ("sqd", "sqd", "scrf_max_iterations = 0"),
        ("sqd", "sqd", "davidson_tol = -1"),
        ("sqd", "sqd", "scrf_tol = nan"),
        ("sqd", "sampler", "noise_p = nan"),
        ("sqd", "sampler", "noise_p = -0.5"),
        ("sqd", "sqd", "seed = -1"),
        ("scf", "sqd", "batch_size = 0"),
        ("scf", "sweep", "shots = 0, 100"),
        ("scf", "active_space", "threshold = nan"),
        ("scf", "active_space", "threshold = -1"),
        ("scf", "active_space", "threshold = 1"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_out_of_range_config_value_exits_2(
    tmp_path, capsys, no_integrals, command, section, setting
):
    """Values that used to crash, loop or be ignored are refused when the
    file is read, whatever the command, without a warning; NaN fails every
    range check. A cavity scaled to 1e300 used to overflow into NaN
    charges and warnings before its error line."""
    if section == "solvent":
        ini = _water_ini(tmp_path, solvent=f"ief-pcm\n{setting}")
    elif section == "active_space":
        ini = _water_ini(tmp_path, extra=setting)
    else:
        ini = _water_ini(tmp_path, extra=f"\n[{section}]\n{setting}\n")
    assert main([command, "--config", str(ini), "--out", str(tmp_path)]) == 2
    assert _one_error_line(capsys)


def test_noise_p_is_checked_for_a_file_source(tmp_path, capsys):
    samples = tmp_path / "shots.txt"
    samples.write_text("n_orb=6\n001111 001111 5\n")
    extra = f"\n[sampler]\nsource = file\npath = {samples}\nnoise_p = nan\n"
    assert main(["sqd", "--config", str(_water_ini(tmp_path, extra=extra))]) == 2
    assert _one_error_line(capsys)


def test_bad_noise_probability_exits_2(tmp_path):
    extra = "\n[sampler]\nshots = 100\nnoise_p = 1.5\n"
    ini = _water_ini(tmp_path, extra=extra)
    assert main(["sqd", "--config", str(ini)]) == 2


def test_multiplicity_gate(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        f"[system]\ngeometry = {CONFIGS / 'water.xyz'}\nmultiplicity = 3\n"
    )
    assert main(["scf", "--config", str(ini)]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "solvaq" in capsys.readouterr().out


def test_relative_paths_resolve_against_config_dir(tmp_path):
    (tmp_path / "geom.xyz").write_text("1\n\nHe 0 0 0\n")
    ini = tmp_path / "run.ini"
    ini.write_text("[system]\ngeometry = geom.xyz\n")
    rc = main(["scf", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "scf_report.json").read_text())
    assert report["scf"]["energy_hartree"] == pytest.approx(-2.80778, abs=1e-4)


_BAD_INPUTS = {
    "odd-electrons": ([], "[system]\ngeometry = {water}\ncharge = 1\n"),
    "negative-electrons": ([], "[system]\ngeometry = {h2}\ncharge = 4\n"),
    "too-many-electrons": ([], "[system]\ngeometry = {h2}\ncharge = -1000\n"),
    "negative-seed-flag": (["--seed", "-1"], "[system]\ngeometry = {h2}\n"),
    "percent-in-basis": ([], "[system]\ngeometry = {h2}\nbasis = sto-3g%\n"),
    "default-section": ([], "[DEFAULT]\nfoo = 1\n[system]\ngeometry = {h2}\n"),
    "default-only": ([], "[DEFAULT]\ngeometry = {h2}\n"),
    "file-source-without-path": ([], "[system]\ngeometry = {h2}\n[sampler]\nsource = file\n"),
    "huge-index-range": (
        [], "[system]\ngeometry = {h2}\n[active_space]\norbitals = 0-100000000000\n"
    ),
    "integer-as-text": ([], "[system]\ngeometry = {h2}\n[sqd]\nbatches = x\n"),
    "duplicate-section": ([], "[system]\ngeometry = {h2}\n[system]\nunit = bohr\n"),
    "triplet": ([], "[system]\ngeometry = {h2}\nmultiplicity = 3\n"),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_config_input_exits_2_before_any_integral(tmp_path, capsys, no_integrals, case):
    argv, text = _BAD_INPUTS[case]
    ini = tmp_path / "run.ini"
    ini.write_text(text.format(water=CONFIGS / "water.xyz", h2=CONFIGS / "h2.xyz"))
    assert main(["scf", "--config", str(ini), "--out", str(tmp_path)] + argv) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("mode,keys", [
    ("avas", ""),
    ("manual", "orbitals = 1-6"),
    ("manual", "electrons = 8"),
])
def test_incomplete_active_space_exits_2_before_any_integral(
    tmp_path, capsys, no_integrals, mode, keys
):
    ini = tmp_path / "run.ini"
    ini.write_text(
        f"[system]\ngeometry = {CONFIGS / 'water.xyz'}\n"
        f"[active_space]\nmode = {mode}\n{keys}\n"
    )
    assert main(["casci", "--config", str(ini), "--out", str(tmp_path)]) == 2
    assert _one_error_line(capsys)


def test_percent_sign_is_literal(tmp_path):
    geometry = tmp_path / "a%b.xyz"
    geometry.write_text((CONFIGS / "h2.xyz").read_text())
    ini = tmp_path / "run.ini"
    ini.write_text(f"[system]\ngeometry = {geometry}\nunit = bohr\n")
    assert main(["scf", "--config", str(ini), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "scf_report.json").read_text())
    assert report["config_echo"]["system"]["geometry"] == str(geometry)


# --- one table of config keys ----------------------------------------------------


def test_help_lists_every_config_key_with_its_default(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    blocks = dict(re.findall(r"^\[(\w+)\]\n((?:  .*\n)+)", out, re.M))
    assert list(blocks) == list(dict.fromkeys(row[0] for row in cli.CONFIG_KEYS))
    for section, key, _, default, _ in cli.CONFIG_KEYS:
        shown = "-" if default is None or default == [] else str(default)
        assert re.search(rf"^  {key} .*\({re.escape(shown)}\)", blocks[section], re.M)


def test_readme_names_every_config_key():
    text = " ".join(README.read_text().split())
    paragraph = text[text.index("Config sections and keys"):]
    paragraph = paragraph[:paragraph.index(".")]
    listed = {
        section: {key.strip() for key in keys.split("/")}
        for section, keys in re.findall(r"`\[(\w+)\]` ([\w/ ]+)", paragraph)
    }
    table = {}
    for section, key, *_ in cli.CONFIG_KEYS:
        table.setdefault(section, set()).add(key)
    assert listed == table
    assert len(cli.CONFIG_KEYS) == 30


# (section, key) -> the dataclass field it feeds; [sampler] noise_p feeds
# NoiseModel.p, which has no default
_FIELDS = {
    ("scf", "max_iterations"): (SCFConfig, "max_iterations"),
    ("scf", "energy_tol"): (SCFConfig, "energy_tol"),
    ("scf", "diis_tol"): (SCFConfig, "diis_tol"),
    ("solvent", "epsilon"): (DielectricParams, "epsilon"),
    ("solvent", "points_per_sphere"): (CavityConfig, "points_per_sphere"),
    ("solvent", "radius_scale"): (CavityConfig, "radius_scale"),
    ("active_space", "mode"): (ActiveSpaceSpec, "mode"),
    ("active_space", "targets"): (ActiveSpaceSpec, "targets"),
    ("active_space", "threshold"): (ActiveSpaceSpec, "threshold"),
    ("active_space", "orbitals"): (ActiveSpaceSpec, "orbitals"),
    ("active_space", "electrons"): (ActiveSpaceSpec, "n_active_electrons"),
    ("sqd", "batches"): (SQDConfig, "k_batches"),
    ("sqd", "batch_size"): (SQDConfig, "batch_size"),
    ("sqd", "recovery_iterations"): (SQDConfig, "recovery_iterations"),
    ("sqd", "davidson_tol"): (SQDConfig, "davidson_tol"),
    ("sqd", "scrf_tol"): (SQDConfig, "scrf_tol"),
    ("sqd", "scrf_max_iterations"): (SQDConfig, "scrf_max_iterations"),
    ("sqd", "seed"): (SQDConfig, "master_seed"),
    ("sqd", "workers"): (SQDConfig, "workers"),
}


@pytest.mark.parametrize("section,key", list(_FIELDS))
def test_config_default_equals_the_dataclass_default(section, key):
    cls, name = _FIELDS[section, key]
    field = {f.name: f for f in dataclasses.fields(cls)}[name]
    default = (
        field.default_factory()
        if field.default_factory is not dataclasses.MISSING
        else field.default
    )
    row = next(row for row in cli.CONFIG_KEYS if row[:2] == (section, key))
    assert row[3] == default


def test_every_field_of_a_config_dataclass_has_a_config_key():
    """No settable value that no config key sets: each field of the
    dataclasses the keys build is one of those keys' targets."""
    fields = {
        (cls, field.name)
        for cls in {cls for cls, _ in _FIELDS.values()}
        for field in dataclasses.fields(cls)
    }
    assert fields == set(_FIELDS.values())


# --- fuzz through main -------------------------------------------------------------


_WORDS = sorted({w for row in cli.CONFIG_KEYS if isinstance(row[2], tuple) for w in row[2]})
# integer keys that set how much work a run does stay at most 5
_WORK_KEYS = {
    ("scf", "max_iterations"), ("sampler", "shots"), ("sqd", "batches"),
    ("sqd", "batch_size"), ("sqd", "recovery_iterations"),
    ("sqd", "scrf_max_iterations"), ("sqd", "workers"),
}
_ODD = ["nan", "inf", "-inf", "-0", "1e400", "%", "a%b", "%(x)s", "", "1-3", "0,1",
        "\x00", "cc-pvdz", "O 2p, H 1s", "0.5", "-1"]
_ANY_VALUE = st.one_of(
    st.text(max_size=12).map(str.strip),
    st.sampled_from(_ODD + _WORDS),
    st.integers(-10**30, 10**30).map(str),
    st.floats().map(repr),
)
_WORK_VALUE = st.one_of(
    st.integers(-5, 5).map(str), st.sampled_from(["nan", "%", "x", "", "1e3"]),
)


# a working H2 config whose sqd run takes a few hundredths of a second
_H2_FUZZ_BASE = {
    ("system", "geometry"): str(CONFIGS / "h2.xyz"),
    ("system", "unit"): "bohr",
    ("sampler", "shots"): "20",
    ("sqd", "batches"): "2",
    ("sqd", "batch_size"): "5",
    ("sqd", "recovery_iterations"): "1",
}


def _run_main(argv):
    """main's exit code and stderr; any exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _assert_clean_exit(rc, err):
    assert rc in (0, 1, 2)
    if rc:
        assert err.splitlines()[-1].startswith("error:"), err


@st.composite
def _edited_config(draw):
    keys = [row[:2] for row in cli.CONFIG_KEYS]
    edits = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    values = dict(_H2_FUZZ_BASE)
    for key in edits:
        values[key] = draw(_WORK_VALUE if key in _WORK_KEYS else _ANY_VALUE)
    return values


@settings(max_examples=100, deadline=None)
@given(values=_edited_config(), command=st.sampled_from(["scf", "casci", "sqd"]))
def test_config_value_fuzz_exits_cleanly(tmp_path_factory, values, command):
    """One to three keys of a working H2 config take arbitrary values: every
    run exits 0, or 1 or 2 with an ``error:`` line, never with an exception."""
    work = tmp_path_factory.mktemp("cfgfuzz")
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    text = "".join(
        f"[{section}]\n" + "\n".join(lines) + "\n" for section, lines in sections.items()
    )
    ini = work / "run.ini"
    ini.write_text(text, encoding="utf-8", errors="surrogatepass")
    _assert_clean_exit(*_run_main([command, "--config", str(ini), "--out", str(work)]))


_INI_LINE = st.one_of(
    st.sampled_from(
        [f"[{s}]" for s in dict.fromkeys(row[0] for row in cli.CONFIG_KEYS)]
        + ["[DEFAULT]", "[x]", "[", "]", "=", "geometry", f"geometry = {CONFIGS / 'h2.xyz'}"]
    ),
    st.builds("{} = {}".format, st.sampled_from([row[1] for row in cli.CONFIG_KEYS]), _ANY_VALUE),
    st.text(max_size=20),
)


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(_INI_LINE, max_size=8), command=st.sampled_from(["scf", "casci", "sqd"]))
def test_config_text_fuzz_exits_cleanly(tmp_path_factory, lines, command):
    work = tmp_path_factory.mktemp("inifuzz")
    ini = work / "run.ini"
    ini.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
    _assert_clean_exit(*_run_main([command, "--config", str(ini), "--out", str(work)]))
