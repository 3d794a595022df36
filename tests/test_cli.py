"""Command-line driver: happy paths, report contents, exit codes."""

import contextlib
import csv
import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvaq.cli as cli
from solvaq.cli import main
from solvaq.errors import ParseError
from solvaq.sampling import read_samples

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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


@pytest.mark.parametrize(
    "command,section,setting",
    [
        ("scf", "scf", "max_iterations = 0"),
        ("scf", "scf", "energy_tol = nan"),
        ("scf", "scf", "diis_tol = -1e-7"),
        ("scf", "solvent", "epsilon = nan"),
        ("scf", "solvent", "radius_scale = inf"),
        ("sqd", "sqd", "scrf_max_iterations = 0"),
        ("sqd", "sqd", "davidson_tol = -1"),
        ("sqd", "sqd", "scrf_tol = nan"),
        ("sqd", "sampler", "noise_p = nan"),
        ("sqd", "sampler", "noise_p = -0.5"),
    ],
)
def test_out_of_range_config_value_exits_2(tmp_path, capsys, command, section, setting):
    """Values that used to crash, loop or be ignored are refused up front;
    NaN fails every range check."""
    if section == "solvent":
        ini = _water_ini(tmp_path, solvent=f"ief-pcm\n{setting}")
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
