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
import json
import sys
import time
from pathlib import Path

from . import __version__
from .active_space import (
    ActiveSpaceSpec,
    MOSpace,
    manual_select,
    select_active_space,
)
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
from .pcm import CavityConfig, DielectricParams, prepare_pcm
from .sampling import NoiseModel, apply_noise, read_samples, sample_exact
from .scf import SCFConfig, run_rhf
from .sqd import (
    ActiveSpaceProblem,
    SQDConfig,
    full_space,
    hilbert_dimension,
    run_sqd,
    scrf_subspace_solve,
)

CASCI_DIMENSION_GUARD = 10_000_000

_SCHEMA = {
    "system": {"geometry", "charge", "unit", "basis", "multiplicity"},
    "scf": {"max_iterations", "energy_tol", "diis_tol"},
    "solvent": {"mode", "epsilon", "points_per_sphere", "radius_scale"},
    "active_space": {"mode", "targets", "threshold", "orbitals", "electrons"},
    "sampler": {"source", "shots", "noise_p", "path"},
    "sqd": {
        "batches",
        "batch_size",
        "recovery_iterations",
        "davidson_tol",
        "scrf_tol",
        "scrf_max_iterations",
        "seed",
        "workers",
    },
    "sweep": {"shots"},
}

_HELP_EPILOG = """\
config file sections and keys (INI format; defaults in parentheses):

  [system]        geometry = PATH.xyz (required)   charge = INT (0)
                  unit = angstrom|bohr (angstrom)  basis = NAME|PATH (sto-3g)
                  multiplicity = 1 (only 1 supported)
  [scf]           max_iterations (200)  energy_tol (1e-9)  diis_tol (1e-7)
  [solvent]       mode = none|ief-pcm (none)  epsilon (78.3553)
                  points_per_sphere = 110|194|302|590 (302)  radius_scale (1.2)
  [active_space]  mode = full|avas|manual (full)
                  avas:   targets = "O 2p, H 1s"  threshold (0.2)
                  manual: orbitals = "1-6" or "0,2,5"  electrons = INT
  [sampler]       source = exact|file (exact)  shots = INT (1000)
                  noise_p = FLOAT (0.0)  path = PATH (file source)
  [sqd]           batches (10)  batch_size (100)  recovery_iterations (3)
                  davidson_tol (1e-8)  scrf_tol (1e-8)
                  scrf_max_iterations (30)  seed (0)  workers (1)
  [sweep]         shots = "100, 250, 600" (per-batch sizes, one CSV row each)

Relative paths inside the config resolve against the config file's directory.
exit codes: 0 success, 1 numerical non-convergence, 2 configuration/IO error.
"""


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

class RunConfig:
    """Validated view of the INI file plus command-line overrides."""

    def __init__(self, path: Path, seed: int | None, workers: int | None):
        self.path = path
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        text = read_text(path, "config file")
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ParseError(f"bad config file {path}: {exc}") from None
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
        self._cfg = parser
        self.seed_override = seed
        self.workers_override = workers

    # -- raw access helpers ------------------------------------------------
    def _get(self, section, key, fallback=None):
        return self._cfg.get(section, key, fallback=fallback)

    def _getint(self, section, key, fallback):
        try:
            return self._cfg.getint(section, key, fallback=fallback)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key} must be an integer, got "
                f"{self._get(section, key)!r}"
            ) from None

    def _getfloat(self, section, key, fallback):
        try:
            return self._cfg.getfloat(section, key, fallback=fallback)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key} must be a number, got "
                f"{self._get(section, key)!r}"
            ) from None

    def _resolve(self, value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else (self.path.parent / p)

    def echo(self) -> dict:
        return {s: dict(self._cfg[s]) for s in self._cfg.sections()}

    # -- typed views ---------------------------------------------------------
    @property
    def geometry_path(self) -> Path:
        raw = self._get("system", "geometry")
        if raw is None:
            raise ConfigError("[system] geometry is required")
        return self._resolve(raw)

    @property
    def charge(self) -> int:
        return self._getint("system", "charge", 0)

    @property
    def unit(self) -> str:
        unit = self._get("system", "unit", "angstrom").lower()
        if unit not in ("angstrom", "bohr"):
            raise ConfigError(f"[system] unit must be angstrom or bohr, got {unit!r}")
        return unit

    @property
    def basis_spec(self) -> str:
        raw = self._get("system", "basis", "sto-3g")
        if raw.lower().endswith(".bas") or "/" in raw:
            return str(self._resolve(raw))
        return raw

    def validate_multiplicity(self):
        mult = self._getint("system", "multiplicity", 1)
        if mult != 1:
            raise ConfigError(f"only multiplicity 1 is supported, got {mult}")

    def scf_config(self) -> SCFConfig:
        return SCFConfig(
            max_iterations=self._getint("scf", "max_iterations", 200),
            energy_tol=self._getfloat("scf", "energy_tol", 1e-9),
            diis_tol=self._getfloat("scf", "diis_tol", 1e-7),
        )

    @property
    def solvent_mode(self) -> str:
        mode = self._get("solvent", "mode", "none").lower()
        if mode not in ("none", "ief-pcm"):
            raise ConfigError(f"[solvent] mode must be none or ief-pcm, got {mode!r}")
        return mode

    def dielectric(self) -> DielectricParams:
        return DielectricParams(self._getfloat("solvent", "epsilon", 78.3553))

    def cavity(self) -> CavityConfig:
        return CavityConfig(
            points_per_sphere=self._getint("solvent", "points_per_sphere", 302),
            radius_scale=self._getfloat("solvent", "radius_scale", 1.2),
        )

    def active_space_spec(self) -> ActiveSpaceSpec | None:
        mode = self._get("active_space", "mode", "full").lower()
        if mode == "full":
            return None
        if mode == "avas":
            raw = self._get("active_space", "targets")
            if not raw:
                raise ConfigError("[active_space] avas mode needs targets")
            targets = [t.strip() for t in raw.split(",") if t.strip()]
            return ActiveSpaceSpec(
                mode="avas",
                targets=targets,
                threshold=self._getfloat("active_space", "threshold", 0.2),
            )
        if mode == "manual":
            raw = self._get("active_space", "orbitals")
            if raw is None:
                raise ConfigError("[active_space] manual mode needs orbitals")
            electrons = self._getint("active_space", "electrons", -1)
            if electrons < 0:
                raise ConfigError("[active_space] manual mode needs electrons")
            return ActiveSpaceSpec(
                mode="manual",
                orbitals=_parse_index_list(raw),
                n_active_electrons=electrons,
            )
        raise ConfigError(
            f"[active_space] mode must be full, avas or manual, got {mode!r}"
        )

    @property
    def sampler_source(self) -> str:
        src = self._get("sampler", "source", "exact").lower()
        if src not in ("exact", "file"):
            raise ConfigError(f"[sampler] source must be exact or file, got {src!r}")
        return src

    @property
    def sampler_shots(self) -> int:
        shots = self._getint("sampler", "shots", 1000)
        if shots < 1:
            raise ConfigError(f"[sampler] shots must be positive, got {shots}")
        return shots

    @property
    def noise_p(self) -> float:
        return self._getfloat("sampler", "noise_p", 0.0)

    @property
    def sampler_path(self) -> Path:
        raw = self._get("sampler", "path")
        if raw is None:
            raise ConfigError("[sampler] source=file needs a path")
        return self._resolve(raw)

    def sqd_config(self) -> SQDConfig:
        seed = self.seed_override
        if seed is None:
            seed = self._getint("sqd", "seed", 0)
        workers = self.workers_override
        if workers is None:
            workers = self._getint("sqd", "workers", 1)
        return SQDConfig(
            k_batches=self._getint("sqd", "batches", 10),
            batch_size=self._getint("sqd", "batch_size", 100),
            recovery_iterations=self._getint("sqd", "recovery_iterations", 3),
            davidson_tol=self._getfloat("sqd", "davidson_tol", 1e-8),
            scrf_tol=self._getfloat("sqd", "scrf_tol", 1e-8),
            scrf_max_iterations=self._getint("sqd", "scrf_max_iterations", 30),
            master_seed=seed,
            workers=workers,
        )

    def sweep_shots(self) -> list[int]:
        raw = self._get("sweep", "shots")
        if not raw:
            raise ConfigError("[sweep] shots is required for the sweep command")
        values = _parse_index_list(raw)
        if len(values) < 2:
            raise ConfigError("[sweep] needs at least two shot counts")
        if any(v < 1 for v in values):
            raise ConfigError("[sweep] shot counts must be positive")
        return values


def _parse_index_list(raw: str) -> list[int]:
    """Parse '0,2,5' and '1-6' style integer lists."""
    out: list[int] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token[1:]:
            lo, _, hi = token.partition("-")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"bad index range {token!r}") from None
            if hi_i < lo_i:
                raise ConfigError(f"bad index range {token!r}")
            out.extend(range(lo_i, hi_i + 1))
        else:
            try:
                out.append(int(token))
            except ValueError:
                raise ConfigError(f"bad index {token!r}") from None
    if not out:
        raise ConfigError(f"empty index list {raw!r}")
    return out


# ---------------------------------------------------------------------------
# Pipeline stages shared by the commands
# ---------------------------------------------------------------------------

class Pipeline:
    """Geometry -> integrals -> SCF(-PCM) -> active space, built lazily."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        cfg.validate_multiplicity()
        self.geometry = load_geometry(cfg.geometry_path, unit=cfg.unit, charge=cfg.charge)
        self.basis = build_basis(self.geometry, load_basis_table(cfg.basis_spec))
        self.integrals = compute_one_electron(self.geometry, self.basis)
        self.eri = compute_eri(self.basis)
        self.pcm = None
        if cfg.solvent_mode == "ief-pcm":
            self.pcm = prepare_pcm(
                self.geometry, self.basis, cfg.dielectric(), cfg.cavity()
            )
        self.scf = run_rhf(
            self.geometry,
            self.basis,
            cfg.scf_config(),
            integrals=self.integrals,
            eri=self.eri,
            pcm=self.pcm,
        )

    def mo_space(self) -> MOSpace:
        spec = self.cfg.active_space_spec()
        if spec is None:
            n_mo = self.scf.mo_coeff.shape[1]
            spec = ActiveSpaceSpec(
                mode="manual",
                orbitals=list(range(n_mo)),
                n_active_electrons=self.geometry.n_electrons,
            )
            return manual_select(self.scf.mo_coeff, self.scf.occupations, spec)
        return select_active_space(self.scf, self.integrals.overlap, self.basis, spec)

    def problem(self) -> ActiveSpaceProblem:
        return ActiveSpaceProblem(
            self.mo_space(),
            self.integrals.core,
            self.eri,
            self.integrals.e_nuc,
            pcm=self.pcm,
            scf_density=self.scf.density if self.pcm is not None else None,
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
        "config_echo": cfg.echo(),
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
    solver_cfg = cfg.sqd_config()
    result, basis = _solve_casci(problem, solver_cfg)
    report = {
        "command": "casci",
        "config_echo": cfg.echo(),
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


def _make_samples(cfg: RunConfig, solver_cfg: SQDConfig, reference, basis,
                  shots: int | None = None):
    """Sample set + sampler metadata for cmd_sqd / cmd_sweep. The exact
    source samples the CASCI ``reference`` over its full-space ``basis``; the
    file source ignores both, and noise_p, which is checked all the same."""
    noise = NoiseModel(p=cfg.noise_p, seed=solver_cfg.master_seed)
    source = cfg.sampler_source
    if source == "file":
        samples = read_samples(cfg.sampler_path)
        meta = {"source": "file", "path": str(cfg.sampler_path),
                "shots": samples.total}
        return samples, meta
    n_shots = shots if shots is not None else cfg.sampler_shots
    samples = sample_exact(reference.ci, basis, n_shots, seed=solver_cfg.master_seed)
    meta = {
        "source": "exact",
        "reference": "casci",
        "reference_energy_hartree": reference.energy,
        "shots": n_shots,
        "noise_p": noise.p,
    }
    if noise.p > 0.0:
        samples = apply_noise(samples, noise)
    return samples, meta


def cmd_sqd(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    problem = pipe.problem()
    solver_cfg = cfg.sqd_config()
    reference = ref_basis = None
    if cfg.sampler_source == "exact":
        reference, ref_basis = _solve_casci(problem, solver_cfg)
    samples, sampler_meta = _make_samples(cfg, solver_cfg, reference, ref_basis)
    result = run_sqd(problem, samples, solver_cfg)
    report = {
        "command": "sqd",
        "config_echo": cfg.echo(),
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
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    problem = pipe.problem()
    base_cfg = cfg.sqd_config()
    shot_list = cfg.sweep_shots()

    reference = ref_basis = None
    try:
        reference, ref_basis = _solve_casci(problem, base_cfg)
    except CapacityError:
        if cfg.sampler_source == "exact":
            raise
    e_ref = reference.energy if reference is not None else None
    g_ref_kcal = reference.g_solv_kcal if reference is not None else None

    rows = []
    for batch_size in shot_list:
        run_cfg = dataclasses.replace(base_cfg, batch_size=batch_size)
        total_shots = run_cfg.k_batches * batch_size
        samples, _ = _make_samples(
            cfg, run_cfg, reference, ref_basis, shots=total_shots
        )
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
        writer = csv.writer(fh)
        writer.writerow(
            ["shots", "d", "E_sqd_hartree", "E_ref_hartree", "dE_kcal", "gsolv_kcal"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["shots"],
                    row["d"],
                    repr(row["E_sqd_hartree"]),
                    "" if row["E_ref_hartree"] is None else repr(row["E_ref_hartree"]),
                    "" if row["dE_kcal"] is None else repr(row["dE_kcal"]),
                    repr(row["gsolv_kcal"]),
                ]
            )
    report = {
        "command": "sweep",
        "config_echo": cfg.echo(),
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
        epilog=_HELP_EPILOG,
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args.config, seed=args.seed, workers=args.workers)
        return _DISPATCH[args.command](cfg, args.out)
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else str(exc)
        print(f"error: file not found: {name}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolvaqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
