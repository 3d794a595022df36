"""Command-line driver: config parsing, pipeline wiring, report emission.

Four subcommands against one INI config:

    solvaq scf    --config run.ini [--seed N] [--workers N] [--out DIR]
    solvaq casci  --config run.ini ...
    solvaq sqd    --config run.ini ...
    solvaq sweep  --config run.ini ...

Every run writes a machine-readable JSON report into the output directory and
prints a short human summary. ``sweep`` additionally writes ``sweep.csv``.
Exit codes: 0 success, 1 numerical non-convergence, 2 configuration/IO error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path

from . import __version__
# manual_select stays a name here: bench/tracing.py wraps it in this module
from .active_space import ActiveSpaceSpec, manual_select, select_active_space  # noqa: F401
from .basis import build_basis, load_basis_table
from .constants import HARTREE_TO_KCAL
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    ParseError,
    SolvaqError,
    read_text,
)
from .geometry import load_geometry
from .integrals import compute_eri, compute_one_electron
from .pcm import RADIUS_SCALE_RANGE, CavityConfig, DielectricParams, prepare_pcm
from .sampling import NoiseModel, apply_noise, read_samples, sample_exact
from .scf import SCFConfig, occupied_count, run_rhf
from .sqd import (
    ActiveSpaceProblem,
    SQDConfig,
    full_space,
    hilbert_dimension,
    run_sqd,
    scrf_subspace_solve,
)

CASCI_DIMENSION_GUARD = 10_000_000

# the value types of CONFIG_KEYS besides int, float, str and a tuple of
# allowed words (matched case-insensitively)
PATH = "path"             # resolved against the config file's directory
LIST = "list"             # comma-separated words
INDICES = "index list"    # comma-separated integers and lo-hi ranges
MAX_INDEX_RANGE = 1000    # widest lo-hi range an index list may name

# Every config key: (section, key, type, default, help). The loader, the
# --help text and the README's key list all follow this table.
CONFIG_KEYS = [
    ("system", "geometry", PATH, None, "XYZ file (required)"),
    ("system", "charge", int, 0, "net molecular charge"),
    ("system", "unit", ("angstrom", "bohr"), "angstrom", "length unit of the XYZ file"),
    ("system", "basis", str, "sto-3g", "sto-3g, cc-pvdz, or a path to a .bas file"),
    ("system", "multiplicity", int, 1, "only 1 is supported"),
    ("scf", "max_iterations", int, 200, "SCF iteration cap"),
    ("scf", "energy_tol", float, 1e-9, "|dE| convergence threshold, hartree"),
    ("scf", "diis_tol", float, 1e-7, "max |FDS - SDF| convergence threshold"),
    ("solvent", "mode", ("none", "ief-pcm"), "none", "gas phase or IEF-PCM"),
    ("solvent", "epsilon", float, 78.3553, "dielectric constant (water, 298 K)"),
    ("solvent", "points_per_sphere", int, 302, "110, 194, 302 or 590"),
    ("solvent", "radius_scale", float, 1.2,
     "cavity radius / vdW radius, in [{}, {}]".format(*RADIUS_SCALE_RANGE)),
    ("active_space", "mode", ("full", "avas", "manual"), "full", "how orbitals are chosen"),
    ("active_space", "targets", LIST, [], 'avas: AO labels, e.g. "O 2p, H 1s"'),
    ("active_space", "threshold", float, 0.2, "avas: projector eigenvalue cut, in (0, 1)"),
    ("active_space", "orbitals", INDICES, [], 'manual: 0-based MOs, "1-6" or "0,2,5"'),
    ("active_space", "electrons", int, None, "manual: electrons in those orbitals"),
    ("sampler", "source", ("exact", "file"), "exact", "sample the CASCI state, or read a file"),
    ("sampler", "shots", int, 1000, "exact: total shots drawn"),
    ("sampler", "noise_p", float, 0.0, "bit-flip probability per bit, in [0, 1)"),
    ("sampler", "path", PATH, None, "file: the sample file"),
    ("sqd", "batches", int, 10, "batches per recovery iteration"),
    ("sqd", "batch_size", int, 100, "configurations drawn per batch"),
    ("sqd", "recovery_iterations", int, 3, "configuration-recovery iterations"),
    ("sqd", "davidson_tol", float, 1e-8, "Davidson convergence tolerance"),
    ("sqd", "scrf_tol", float, 1e-8, "|dG| threshold of the reaction-field loop"),
    ("sqd", "scrf_max_iterations", int, 30, "reaction-field iteration cap"),
    ("sqd", "seed", int, 0, "master seed (--seed overrides)"),
    ("sqd", "workers", int, 1, "parallel batch solves (--workers overrides)"),
    ("sweep", "shots", INDICES, None, "sweep: per-batch sizes, one CSV row each"),
]


def _type_name(kind) -> str:
    if isinstance(kind, tuple):
        return "|".join(kind)
    return {int: "integer", float: "number", str: "text"}.get(kind, kind)


def _help_epilog() -> str:
    lines = ["config file keys (INI format): key, type, (default), use"]
    for section, rows in itertools.groupby(CONFIG_KEYS, key=lambda row: row[0]):
        lines.append(f"[{section}]")
        for _, key, kind, default, text in rows:
            shown = "-" if default is None or default == [] else default
            lines.append(f"  {key:<19} {_type_name(kind):<16} {f'({shown})':<11} {text}")
    return "\n".join(lines) + """

Relative paths resolve against the config file's directory, '%' is literal,
and a [DEFAULT] section is refused. Every key is checked when the file is read.
exit codes: 0 success, 1 numerical non-convergence, 2 configuration/IO error.
"""


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

class RunConfig:
    """The config file read once through CONFIG_KEYS, plus the --seed and
    --workers overrides. Every value is typed and every dataclass built, so
    range-checked by its owner, before any geometry, integral or SCF work."""

    def __init__(self, path: Path, seed: int | None = None, workers: int | None = None):
        # interpolation=None keeps '%' literal; no header can name the
        # default section "", so [DEFAULT] is an ordinary, unknown section
        parser = configparser.ConfigParser(
            inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
        )
        try:
            parser.read_string(read_text(path, "config file"), source=str(path))
        except configparser.Error as exc:
            raise ParseError(f"bad config file {path}: {exc}") from None
        values = {section: {} for section, *_ in CONFIG_KEYS}
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if (section, key) not in (row[:2] for row in CONFIG_KEYS):
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        for section, key, kind, default, _ in CONFIG_KEYS:
            raw = parser.get(section, key, fallback=None)
            values[section][key] = default if raw is None else _typed(
                kind, raw, f"[{section}] {key}", path.parent
            )
        system, solvent, active, sampler, sqd = (
            values[s] for s in ("system", "solvent", "active_space", "sampler", "sqd")
        )
        if system["geometry"] is None:
            raise ConfigError("[system] geometry is required")
        if system["multiplicity"] != 1:
            raise ConfigError(
                f"only multiplicity 1 is supported, got {system['multiplicity']}"
            )
        if sampler["source"] == "file" and sampler["path"] is None:
            raise ConfigError("[sampler] source = file needs a path")

        self.echo = {section: dict(parser[section]) for section in parser.sections()}
        self.geometry_path = system["geometry"]
        self.charge, self.unit, basis = system["charge"], system["unit"], system["basis"]
        if basis.lower().endswith(".bas") or "/" in basis:
            basis = str(path.parent / basis)
        self.basis_spec = basis
        self.scf = SCFConfig(**values["scf"])
        self.solvent_mode = solvent["mode"]
        self.dielectric = DielectricParams(solvent["epsilon"])
        self.cavity = CavityConfig(solvent["points_per_sphere"], solvent["radius_scale"])
        self.active_space = ActiveSpaceSpec(
            mode=active["mode"],
            targets=active["targets"],
            threshold=active["threshold"],
            orbitals=active["orbitals"],
            n_active_electrons=active["electrons"],
        )
        self.sqd = SQDConfig(
            k_batches=sqd["batches"],
            batch_size=sqd["batch_size"],
            recovery_iterations=sqd["recovery_iterations"],
            davidson_tol=sqd["davidson_tol"],
            scrf_tol=sqd["scrf_tol"],
            scrf_max_iterations=sqd["scrf_max_iterations"],
            master_seed=sqd["seed"] if seed is None else seed,
            workers=sqd["workers"] if workers is None else workers,
        )
        self.sampler_source = sampler["source"]
        self.sampler_shots, self.sampler_path = sampler["shots"], sampler["path"]
        self.noise = NoiseModel(sampler["noise_p"], seed=self.sqd.master_seed)
        shots = values["sweep"]["shots"]
        self.sweep = None if shots is None else [
            dataclasses.replace(self.sqd, batch_size=s) for s in shots
        ]


def _typed(kind, raw: str, name: str, base: Path):
    """``raw`` read as a value of ``kind``; ``name`` labels the error."""
    try:
        if isinstance(kind, tuple):
            if raw.lower() in kind:
                return raw.lower()
        elif kind == PATH:
            if "\0" not in raw:
                return base / raw
        elif kind == LIST:
            return [word.strip() for word in raw.split(",") if word.strip()]
        elif kind == INDICES:
            return _parse_index_list(raw)
        else:
            return kind(raw)
    except ValueError:
        pass
    raise ConfigError(f"{name}: expected {_type_name(kind)}, got {raw!r}")


def _parse_index_list(raw: str) -> list[int]:
    """'0,2,5' and '1-6' style integer lists; ValueError if malformed."""
    out: list[int] = []
    for token in raw.split(","):
        token = token.strip()
        if "-" in token[1:]:
            lo, _, hi = token.partition("-")
            lo, hi = int(lo), int(hi)
            if not 0 <= hi - lo < MAX_INDEX_RANGE:
                raise ValueError(token)
            out.extend(range(lo, hi + 1))
        elif token:
            out.append(int(token))
    if not out:
        raise ValueError(raw)
    return out


# ---------------------------------------------------------------------------
# Pipeline stages shared by the commands
# ---------------------------------------------------------------------------

class Pipeline:
    """Geometry -> integrals -> SCF(-PCM) -> active space, built lazily."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.geometry = load_geometry(cfg.geometry_path, unit=cfg.unit, charge=cfg.charge)
        self.basis = build_basis(self.geometry, load_basis_table(cfg.basis_spec))
        # refuse an electron count RHF cannot take before any integral
        occupied_count(self.geometry.n_electrons, self.basis.n_ao)
        self.integrals = compute_one_electron(self.geometry, self.basis)
        self.eri = compute_eri(self.basis)
        self.pcm = None
        if cfg.solvent_mode == "ief-pcm":
            self.pcm = prepare_pcm(self.geometry, self.basis, cfg.dielectric, cfg.cavity)
        self.scf = run_rhf(
            self.geometry,
            self.basis,
            cfg.scf,
            integrals=self.integrals,
            eri=self.eri,
            pcm=self.pcm,
        )

    def problem(self) -> ActiveSpaceProblem:
        """The active-space problem; ConvergenceError unless the SCF converged,
        since its orbitals (and, solvated, its density) define the problem."""
        if not self.scf.converged:
            raise ConvergenceError(
                f"SCF did not converge in {self.scf.n_iterations} iterations; "
                "no active space is built from unconverged orbitals"
            )
        return ActiveSpaceProblem(
            select_active_space(
                self.scf, self.integrals.overlap, self.basis, self.cfg.active_space
            ),
            self.integrals.core,
            self.eri,
            self.integrals.e_nuc,
            pcm=self.pcm,
            scf_operator=self.scf.solvent_operator,
        )

    def scf_summary(self) -> dict:
        return {
            "energy_hartree": self.scf.energy,
            "g_pol_hartree": self.scf.g_pol,
            "g_pol_kcal": self.scf.g_pol * HARTREE_TO_KCAL,
            "converged": self.scf.converged,
            "iterations": self.scf.n_iterations,
        }

    def system_summary(self) -> dict:
        out = {
            "atoms": list(self.geometry.symbols),
            "charge": self.geometry.charge,
            "n_electrons": self.geometry.n_electrons,
            "n_ao": self.basis.n_ao,
            "basis": self.cfg.basis_spec,
            "solvent_mode": self.cfg.solvent_mode,
        }
        if self.pcm is not None:
            out["epsilon"] = self.pcm.dielectric.epsilon
            out["n_tesserae"] = self.pcm.surface.n_points
        return out


def _solve_casci(problem: ActiveSpaceProblem, config: SQDConfig):
    """Full-determinant-space reference solve (gas or solvated): the
    (result, basis) pair."""
    d_as = hilbert_dimension(problem.n_orbitals, problem.n_alpha, problem.n_alpha)
    if d_as > CASCI_DIMENSION_GUARD:
        raise CapacityError(
            f"full determinant space has dimension {d_as} > "
            f"{CASCI_DIMENSION_GUARD}; use the sqd command instead"
        )
    basis = full_space(problem.n_orbitals, problem.n_alpha, problem.n_alpha)
    result = scrf_subspace_solve(problem, basis, config)
    return result, basis


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _write_report(out_dir: Path, name: str, report: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _batch_rows(iterations) -> list:
    rows = []
    for it_index, results in enumerate(iterations):
        for r in results:
            rows.append(
                {
                    "iteration": it_index,
                    "batch": r.batch_index,
                    "energy_hartree": r.energy,
                    "g_solv_kcal": r.g_solv_kcal,
                    "d": r.d,
                    "n_strings": r.n_strings,
                    "scrf_iterations": r.scrf_iterations,
                    "converged": r.converged,
                    "error": r.error,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_scf(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    scf = pipe.scf
    report = {
        "command": "scf",
        "config_echo": cfg.echo,
        "system": pipe.system_summary(),
        "scf": pipe.scf_summary(),
        "history": [
            {"energy_hartree": e, "diis_error": d} for e, d in scf.history
        ],
        "wall_time_seconds": time.perf_counter() - t0,
    }
    path = _write_report(out_dir, "scf_report.json", report)
    print(f"SCF energy:      {scf.energy:.10f} hartree")
    if pipe.pcm is not None:
        print(
            f"polarization dG: {scf.g_pol:.10f} hartree "
            f"({scf.g_pol * HARTREE_TO_KCAL:.4f} kcal/mol)"
        )
    print(f"converged:       {scf.converged} ({scf.n_iterations} iterations)")
    print(f"report:          {path}")
    if not scf.converged:
        raise ConvergenceError(
            f"SCF did not converge in {scf.n_iterations} iterations "
            f"(see {path})"
        )
    return 0


def cmd_casci(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    problem = pipe.problem()
    result, basis = _solve_casci(problem, cfg.sqd)
    report = {
        "command": "casci",
        "config_echo": cfg.echo,
        "system": pipe.system_summary(),
        "scf": pipe.scf_summary(),
        "active_space": {
            "n_orbitals": problem.n_orbitals,
            "n_electrons": problem.n_electrons,
            "hilbert_dimension": basis.d,
        },
        "casci": {
            "energy_hartree": result.energy,
            "g_solv_kcal": result.g_solv_kcal,
            "g_solv_hartree": result.g_solv_kcal / HARTREE_TO_KCAL,
            "d": basis.d,
            "scrf_iterations": result.scrf_iterations,
            "converged": result.converged,
        },
        "wall_time_seconds": time.perf_counter() - t0,
    }
    path = _write_report(out_dir, "casci_report.json", report)
    print(f"CASCI energy:  {result.energy:.10f} hartree (d = {basis.d})")
    if pipe.pcm is not None:
        print(f"G_solv:        {result.g_solv_kcal:.4f} kcal/mol")
    print(f"report:        {path}")
    if not result.converged:
        raise ConvergenceError(f"CASCI solve did not converge (see {path})")
    return 0


def _make_samples(cfg: RunConfig, reference, basis, shots: int | None = None):
    """Sample set + sampler metadata for cmd_sqd / cmd_sweep. The exact
    source samples the CASCI ``reference`` over its full-space ``basis``; the
    file source ignores both, and the noise model."""
    if cfg.sampler_source == "file":
        samples = read_samples(cfg.sampler_path)
        meta = {"source": "file", "path": str(cfg.sampler_path),
                "shots": samples.total}
        return samples, meta
    n_shots = shots if shots is not None else cfg.sampler_shots
    samples = sample_exact(reference.ci, basis, n_shots, seed=cfg.sqd.master_seed)
    meta = {
        "source": "exact",
        "reference": "casci",
        "reference_energy_hartree": reference.energy,
        "shots": n_shots,
        "noise_p": cfg.noise.p,
    }
    if cfg.noise.p > 0.0:
        samples = apply_noise(samples, cfg.noise)
    return samples, meta


def cmd_sqd(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    problem = pipe.problem()
    reference = ref_basis = None
    if cfg.sampler_source == "exact":
        reference, ref_basis = _solve_casci(problem, cfg.sqd)
    samples, sampler_meta = _make_samples(cfg, reference, ref_basis)
    result = run_sqd(problem, samples, cfg.sqd)
    report = {
        "command": "sqd",
        "config_echo": cfg.echo,
        "system": pipe.system_summary(),
        "scf": pipe.scf_summary(),
        "active_space": {
            "n_orbitals": problem.n_orbitals,
            "n_electrons": problem.n_electrons,
        },
        "sampler": sampler_meta,
        "sqd": {
            "hilbert_dimension": result.hilbert_dimension,
            "final_energy_hartree": result.final_energy,
            "final_g_solv_kcal": result.final_g_solv_kcal,
            "final_batch_index": result.final_batch_index,
            "final_d": result.final_d,
            "batches": _batch_rows(result.iterations),
            "metadata": result.metadata,
        },
        "wall_time_seconds": time.perf_counter() - t0,
    }
    if reference is not None:
        report["reference"] = {
            "casci_energy_hartree": reference.energy,
            "casci_g_solv_kcal": reference.g_solv_kcal,
            "delta_kcal": (result.final_energy - reference.energy) * HARTREE_TO_KCAL,
        }
    path = _write_report(out_dir, "sqd_report.json", report)
    print(f"SQD energy:    {result.final_energy:.10f} hartree "
          f"(batch {result.final_batch_index}, d = {result.final_d})")
    if pipe.pcm is not None:
        print(f"G_solv:        {result.final_g_solv_kcal:.4f} kcal/mol")
    if reference is not None:
        gap = (result.final_energy - reference.energy) * HARTREE_TO_KCAL
        print(f"vs CASCI:      {gap:+.4f} kcal/mol")
    print(f"D_AS:          {result.hilbert_dimension}")
    print(f"report:        {path}")
    return 0


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.sweep is None:
        raise ConfigError("[sweep] shots is required for the sweep command")
    if len(cfg.sweep) < 2:
        raise ConfigError("[sweep] needs at least two shot counts")
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    problem = pipe.problem()

    reference = ref_basis = None
    try:
        reference, ref_basis = _solve_casci(problem, cfg.sqd)
    except CapacityError:
        if cfg.sampler_source == "exact":
            raise
    e_ref = reference.energy if reference is not None else None
    g_ref_kcal = reference.g_solv_kcal if reference is not None else None

    rows = []
    for run_cfg in cfg.sweep:
        batch_size = run_cfg.batch_size
        total_shots = run_cfg.k_batches * batch_size
        samples, _ = _make_samples(cfg, reference, ref_basis, shots=total_shots)
        result = run_sqd(problem, samples, run_cfg)
        de_kcal = (
            (result.final_energy - e_ref) * HARTREE_TO_KCAL
            if e_ref is not None
            else None
        )
        rows.append(
            {
                "shots": batch_size,
                "d": result.final_d,
                "E_sqd_hartree": result.final_energy,
                "E_ref_hartree": e_ref,
                "dE_kcal": de_kcal,
                "gsolv_kcal": result.final_g_solv_kcal,
            }
        )
        shown = f"{de_kcal:+.4f}" if de_kcal is not None else "n/a"
        print(
            f"shots {batch_size:6d}  d {result.final_d:8d}  "
            f"E {result.final_energy:.8f}  dE {shown} kcal/mol"
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        # csv writes None as an empty field and a float as its repr
        writer = csv.DictWriter(fh, fieldnames=rows[0])
        writer.writeheader()
        writer.writerows(rows)
    report = {
        "command": "sweep",
        "config_echo": cfg.echo,
        "system": pipe.system_summary(),
        "scf": pipe.scf_summary(),
        "reference": {
            "casci_energy_hartree": e_ref,
            "casci_g_solv_kcal": g_ref_kcal,
        },
        "rows": rows,
        "csv": str(csv_path),
        "wall_time_seconds": time.perf_counter() - t0,
    }
    path = _write_report(out_dir, "sweep_report.json", report)
    print(f"csv:           {csv_path}")
    print(f"report:        {path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvaq",
        description=(
            "Sampled-subspace CI with continuum solvation: restricted "
            "Hartree-Fock, IEF-PCM reaction field, CASCI references, and "
            "noisy-sample subspace diagonalization."
        ),
        epilog=_help_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"solvaq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("scf", "mean-field run (gas or solvated)"),
        ("casci", "full-determinant-space reference run"),
        ("sqd", "sampled-subspace diagonalization run"),
        ("sweep", "batch-size sweep writing sweep.csv"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, type=Path, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--workers", type=int, default=None, help="batch worker count override"
        )
        p.add_argument(
            "--out", type=Path, default=Path("."), help="output directory (default .)"
        )
    return parser


_DISPATCH = {
    "scf": cmd_scf,
    "casci": cmd_casci,
    "sqd": cmd_sqd,
    "sweep": cmd_sweep,
}


def _fail(message: str, code: int) -> int:
    """Print ``message`` as one ``error:`` line, its line breaks (every
    separator ``str.splitlines`` knows) turned into spaces, and return
    ``code``."""
    print("error: " + " ".join(message.splitlines()), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args.config, seed=args.seed, workers=args.workers)
        return _DISPATCH[args.command](cfg, args.out)
    except (ParseError, ConfigError) as exc:
        return _fail(str(exc), 2)
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc.filename or exc}", 2)
    except OSError as exc:
        return _fail(str(exc), 2)
    except SolvaqError as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
