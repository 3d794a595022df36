"""Span recorder for the traced benchmark run.

The program itself carries no tracing, so spans are recorded from outside:
``installed(tracer)`` replaces each traced callable at the place where the
program looks its name up (module globals of ``solvaq.cli``,
``solvaq.sqd.engine`` and ``solvaq.pcm``, and class attributes for methods)
with a wrapper that opens a span, calls the original and closes the span,
and puts the originals back on exit. The wrappers only read arguments and
results, so a traced op computes exactly what an untraced one does.

A span has a name, a start, an end, its parent's index and counts taken from
public arguments and results. Counts are taken after the span closes, inside
a ``trace.count`` child of the enclosing span, so neither the layer's time
nor its parent's self time includes them. A layer's self time is its span's
duration minus the durations of its child spans (the code is single-threaded,
so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass, field

COUNT_SPAN = "trace.count"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def traced(self, name: str, fn, counts=None):
        """``fn`` wrapped in a span; ``counts(args, result)`` returns the
        span's counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counts is not None:
                counting = self.open(COUNT_SPAN)
                try:
                    self.spans[index].counts = counts(args, result)
                finally:
                    self.close(counting)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "counts": s.counts}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it (spans are stored in
    opening order, so descendants follow their ancestor)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


# ---------------------------------------------------------------------------
# Where the wrappers go
# ---------------------------------------------------------------------------

def _shell_quartets(args, result):
    n_shells = len(args[0].shells)
    pairs = n_shells * (n_shells + 1) // 2
    return {"quartets": pairs * (pairs + 1) // 2}


def _recover_counts(args, result):
    samples, _occ, n_alpha, n_beta = args[:4]
    shots = wrong = 0
    for config, count in samples.entries.items():
        shots += count
        if config.weights() != (n_alpha, n_beta):
            wrong += count
    return {"shots": shots, "repaired": wrong}


def _subspace_counts(args, result):
    return {"n_strings": result.n_strings, "d": result.d}


def _run_sqd_counts(args, result):
    rows = [r for it in result.iterations for r in it]
    samples = args[1]
    return {"batches": len(rows), "batches_failed": sum(not r.converged for r in rows),
            "shots": samples.total, "unique": samples.n_unique}


def _scrf_counts(args, result):
    return {"macro": result.scrf_iterations}


def _matvec_counts(args, result):
    ham = args[0]
    tables = ham.tables
    dense = tables.n_pairs * ham.n_strings
    return {"cross_density": (len(tables.rows) / dense) ** 2}


def _sites():
    """(owner, attribute, span name, counts) for every traced callable."""
    import solvaq.cli as cli
    import solvaq.pcm as pcm
    import solvaq.sqd.engine as engine
    from solvaq.sqd.hamiltonian import ExcitationTables, ProjectedHamiltonian

    return [
        (cli, "compute_one_electron", "integrals.one_e", None),
        (cli, "compute_eri", "integrals.eri", _shell_quartets),
        (pcm, "esp_tensor", "integrals.esp", None),
        (cli, "prepare_pcm", "pcm.prepare",
         lambda a, r: {"tesserae": r.surface.n_points}),
        (pcm.PCMContext, "solve", "pcm.solve", None),
        (cli, "run_rhf", "scf.rhf", lambda a, r: {"iterations": r.n_iterations}),
        (cli, "manual_select", "active_space.select", None),
        (cli, "select_active_space", "active_space.select", None),
        (engine, "transform_integrals", "active_space.transform", None),
        (cli, "sample_exact", "sampling.exact", None),
        (cli, "apply_noise", "sampling.noise", None),
        (cli, "read_samples", "sampling.read", None),
        (cli, "run_sqd", "engine.run_sqd", _run_sqd_counts),
        (engine, "recover", "engine.recover", _recover_counts),
        (engine, "draw_batches", "engine.draw", None),
        (cli, "scrf_subspace_solve", "engine.scrf", _scrf_counts),
        (engine, "scrf_subspace_solve", "engine.scrf", _scrf_counts),
        (cli, "full_space", "strings.build", _subspace_counts),
        (engine, "build_subspace", "strings.build", _subspace_counts),
        (ExcitationTables, "__init__", "hamiltonian.tables",
         lambda a, r: {"entries": len(a[0].rows)}),
        (ExcitationTables, "same_spin_matrix", "hamiltonian.same_spin", None),
        (ProjectedHamiltonian, "__init__", "hamiltonian.build", None),
        (ProjectedHamiltonian, "matvec", "hamiltonian.matvec", _matvec_counts),
        (engine, "davidson_ground_state", "davidson",
         lambda a, r: {"expansions": r.n_expansions}),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, counts in _sites():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.traced(name, original, counts))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric, span name, what): "self" and "total" are seconds, "calls" counts
# spans, anything else sums that count over the spans.
_SUMS = [
    ("integrals.eri_s", "integrals.eri", "total"),
    ("integrals.eri_quartets", "integrals.eri", "quartets"),
    ("integrals.one_e_s", "integrals.one_e", "total"),
    ("integrals.esp_s", "integrals.esp", "total"),
    ("pcm.prepare_s", "pcm.prepare", "self"),
    ("pcm.tesserae", "pcm.prepare", "tesserae"),
    ("pcm.solve_s", "pcm.solve", "total"),
    ("pcm.solve_calls", "pcm.solve", "calls"),
    ("scf.rhf_s", "scf.rhf", "self"),
    ("scf.iterations", "scf.rhf", "iterations"),
    ("active_space.select_s", "active_space.select", "total"),
    ("active_space.transform_s", "active_space.transform", "total"),
    ("sampling.exact_s", "sampling.exact", "total"),
    ("sampling.noise_s", "sampling.noise", "total"),
    ("sampling.read_s", "sampling.read", "total"),
    ("sampling.shots", "engine.run_sqd", "shots"),
    ("sampling.unique", "engine.run_sqd", "unique"),
    ("engine.loop_s", "engine.run_sqd", "self"),
    ("engine.recover_s", "engine.recover", "total"),
    ("engine.recover_shots", "engine.recover", "shots"),
    ("engine.draw_s", "engine.draw", "total"),
    ("engine.scrf_s", "engine.scrf", "self"),
    ("engine.scrf_macro", "engine.scrf", "macro"),
    ("engine.batches", "engine.run_sqd", "batches"),
    ("engine.batches_failed", "engine.run_sqd", "batches_failed"),
    ("strings.build_s", "strings.build", "total"),
    ("strings.d_total", "strings.build", "d"),
    ("hamiltonian.tables_s", "hamiltonian.tables", "self"),
    ("hamiltonian.table_entries", "hamiltonian.tables", "entries"),
    ("hamiltonian.same_spin_s", "hamiltonian.same_spin", "total"),
    ("hamiltonian.build_s", "hamiltonian.build", "self"),
    ("hamiltonian.builds", "hamiltonian.build", "calls"),
    ("hamiltonian.matvec_s", "hamiltonian.matvec", "total"),
    ("hamiltonian.matvecs", "hamiltonian.matvec", "calls"),
    ("davidson.s", "davidson", "self"),
    ("davidson.calls", "davidson", "calls"),
    ("davidson.expansions", "davidson", "expansions"),
]

LAYER_UNITS = {
    name: ("s" if what in ("self", "total") else "count") for name, _, what in _SUMS
}
LAYER_UNITS.update({
    "engine.recover_repaired_ratio": "ratio",
    "strings.n_strings_mean": "count",
    "hamiltonian.matvec_ms": "ms",
    "hamiltonian.cross_density": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_layers(spans: list[Span], root: int) -> dict[str, float]:
    """Per-layer metrics of the op whose root span is ``root``."""
    idx = subtree(spans, root)
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i in idx:
        by_name.setdefault(spans[i].name, []).append(i)

    def total(name, what):
        members = by_name.get(name, [])
        if what == "calls":
            return float(len(members))
        if what == "self":
            return float(sum(own[i] for i in members))
        if what == "total":
            return float(sum(spans[i].duration for i in members))
        return float(sum(spans[i].counts.get(what, 0) for i in members))

    out = {metric: total(name, what) for metric, name, what in _SUMS}
    out["engine.recover_repaired_ratio"] = _ratio(
        total("engine.recover", "repaired"), out["engine.recover_shots"]
    )
    out["strings.n_strings_mean"] = _ratio(
        total("strings.build", "n_strings"), len(by_name.get("strings.build", []))
    )
    out["hamiltonian.matvec_ms"] = 1e3 * _ratio(
        out["hamiltonian.matvec_s"], out["hamiltonian.matvecs"]
    )
    out["hamiltonian.cross_density"] = _ratio(
        total("hamiltonian.matvec", "cross_density"), out["hamiltonian.matvecs"]
    )
    out["cli.self_s"] = own[root]
    return out


def layer_medians(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(op[k] for op in per_op) for k in per_op[0]}
