"""Per-layer metrics of darwinlab, computed from a traced pass.

Each metric is a span count, a span time, a self time or a counter, named
after the darwinlab module (layer) it measures. The comment on each group
says which end-to-end metric it should move, and on which workload; the
README in this directory has the full map.
"""
from __future__ import annotations

import inspect
import math
from collections import defaultdict

import numpy as np

from tracer import Tracer

# (name, unit, better) -- the order BENCHMARK.json lists them in
METRICS = (
    # qstate -> run_s on records-wide (FragmentSpec), scramble-dense (SVD)
    ("qstate.fragment_spec.calls", "count", "lower"),
    ("qstate.fragment_spec.time_s", "s", "lower"),
    ("qstate.fragment_spec.per_eval", "ratio", "lower"),
    ("qstate.subsystem_entropy.calls", "count", "lower"),
    ("qstate.subsystem_entropy.time_s", "s", "lower"),
    ("qstate.subsystem_entropy.svd_elems", "count", "lower"),
    ("qstate.reduced_density.time_s", "s", "lower"),
    # info -> run_s on scramble-dense (small)
    ("info.holevo.calls", "count", "lower"),
    ("info.holevo.time_s", "s", "lower"),
    # branching -> run_s on records-wide
    ("branching.mutual_info.calls", "count", "lower"),
    ("branching.mutual_info.time_s", "s", "lower"),
    ("branching.mutual_info.self_s", "s", "lower"),
    ("branching.gram_entropy.calls", "count", "lower"),
    ("branching.gram_entropy.time_s", "s", "lower"),
    ("branching.overlap_product.time_s", "s", "lower"),
    ("branching.gram_per_eval", "ratio", "lower"),
    ("branching.overlap_elems", "count", "lower"),
    # spinmodels -> run_s and peak_rss_mb on hazy-sectors
    ("spinmodels.sym_power.calls", "count", "lower"),
    ("spinmodels.sym_power.time_s", "s", "lower"),
    ("spinmodels.sym_power.distinct_ratio", "ratio", "higher"),
    ("spinmodels.hazy_mutual_info.calls", "count", "lower"),
    ("spinmodels.hazy_mutual_info.time_s", "s", "lower"),
    ("spinmodels.hazy_redundancy.time_s", "s", "lower"),
    ("spinmodels.hazy_redundancy.sizes_scanned", "count", "lower"),
    ("spinmodels.interacting_evolve.time_s", "s", "lower"),
    ("spinmodels.central_spin_branching.time_s", "s", "lower"),
    # qbm -> run_s on oscillator-bands
    ("qbm.evolve.time_s", "s", "lower"),
    ("qbm.mutual_info.calls", "count", "lower"),
    ("qbm.mutual_info.time_s", "s", "lower"),
    ("qbm.symplectic_eigenvalues.calls", "count", "lower"),
    ("qbm.symplectic_eigenvalues.time_s", "s", "lower"),
    ("qbm.symplectic_eigenvalues.dim_cubed", "count", "lower"),
    ("qbm.eig_per_entropy", "ratio", "lower"),
    # photon, envariance: guards on records-wide
    ("photon.time_s", "s", "lower"),
    ("envariance.time_s", "s", "lower"),
    # darwin -> run_s on records-wide, near zero on hazy-sectors
    ("darwin.build_pip.time_s", "s", "lower"),
    ("darwin.build_pip.self_s", "s", "lower"),
    ("darwin.fragment_evals", "count", "lower"),
    ("darwin.fragment_mutual_info.self_s", "s", "lower"),
    ("darwin.mirror_share", "ratio", "higher"),
    ("darwin.sample_yield", "ratio", "higher"),
    ("darwin.redundancy.time_s", "s", "lower"),
    ("darwin.redundancy_of_decoherence.time_s", "s", "lower"),
    ("darwin.decohered_evals", "count", "lower"),
    ("darwin.observable_sweep.time_s", "s", "lower"),
    ("darwin.export.time_s", "s", "lower"),
    # cli: flat everywhere
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    # traced pass time over untraced pass time, both in fresh processes
    ("trace.overhead_ratio", "ratio", "lower"),
)

# the one property wrapped: FragmentSpec.sorted rebuilds a sorted tuple per call
PROPERTIES = ("qstate.FragmentSpec.sorted",)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _svd_elems(args, kwargs, result):
    state, keep = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "keep")
    idx = set(getattr(keep, "indices", keep))
    rows = math.prod(state.shape.dims[i] for i in idx)
    return {"elems": rows * (state.shape.total_dim // rows)}


def _overlap_elems(args, kwargs, result):
    b, frag = args[0], _arg(args, kwargs, 1, "frag")
    return {"elems": b.n_branches ** 2 * len(frag)}


def _dim_cubed(args, kwargs, result):
    return {"dim_cubed": (2 * args[0].n_modes) ** 3}


def _sym_key(args, kwargs):
    return np.asarray(_arg(args, kwargs, 0, "a")).tobytes(), int(_arg(args, kwargs, 1, "k"))


def _pip_counter(build_pip):
    sig = inspect.signature(build_pip)

    def count(args, kwargs, pip):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        src = bound.arguments["source"]
        spf = bound.arguments["samples_per_fraction"]
        n = pip.n_env
        pure = bool(getattr(src, "pure_global", False))
        symmetric = bool(getattr(src, "symmetric", False))
        out = {"points": len(pip.points), "mirrored": 0, "requested": 0, "kept": 0}
        for p in pip.points:
            m = p.sharp_f
            if pure and n - m < m:
                out["mirrored"] += 1
            elif not symmetric and 0 < m < n and math.comb(n, m) > spf:
                out["requested"] += spf
                out["kept"] += p.samples
        return out

    return count


def instrument(tracer: Tracer, package) -> None:
    """Patch every darwinlab module with spans and the counters below."""
    mods = [getattr(package, name) for name in
            ("qstate", "info", "branching", "spinmodels", "qbm", "photon",
             "envariance", "darwin", "cli")]
    counters = {
        "qstate.subsystem_entropy": _svd_elems,
        "branching.BranchingState.overlap_product": _overlap_elems,
        "qbm.GaussianState.symplectic_eigenvalues": _dim_cubed,
        "darwin.build_pip": _pip_counter(package.darwin.build_pip),
    }
    tracer.patch_package(mods, counters=counters,
                         keys={"spinmodels.sym_power": _sym_key},
                         properties=PROPERTIES)


class _Spans:
    """Span ids grouped by name, plus self times, for one traced pass."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.by_name = defaultdict(list)
        for sid, name in enumerate(tr.names):
            self.by_name[name].append(sid)
        self.self_t = tr.self_times()

    def ids(self, match) -> list[int]:
        return [sid for name, ids in self.by_name.items() if match(name) for sid in ids]

    def entries(self, match) -> list[int]:
        """Spans of the group that no other span of the group encloses."""
        return [sid for sid in self.ids(match) if not self.tr.has_ancestor(sid, match)]

    def calls(self, match) -> int:
        return len(self.entries(match))

    def time(self, match) -> float:
        tr = self.tr
        return sum(tr.ends[s] - tr.starts[s] for s in self.entries(match))

    def self_time(self, match) -> float:
        return sum(self.self_t[s] for s in self.ids(match))

    def nested(self, match, under) -> int:
        """Spans matching `match` with an ancestor matching `under`."""
        return sum(1 for s in self.ids(match) if self.tr.has_ancestor(s, under))


def _is(*names):
    wanted = set(names)
    return lambda name: name in wanted


def _method(prefix, method):
    return lambda name: name.startswith(prefix) and name.rsplit(".", 1)[-1] == method


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(tr: Tracer, bytes_written: int) -> dict:
    """Every per-layer metric except trace.overhead_ratio, as name -> value."""
    sp = _Spans(tr)
    frag_spec = lambda name: name.startswith("qstate.FragmentSpec.")
    svd = _is("qstate.subsystem_entropy")
    mi_branch = _is("branching.mutual_info_branching")
    gram = _is("branching.gram_entropy")
    sym = _is("spinmodels.sym_power")
    hazy_mi = _is("spinmodels.HazyCentralSpin.mutual_info")
    hazy_red = _is("spinmodels.hazy_redundancy")
    qbm_mi = _is("qbm.qbm_mutual_info")
    eig = _is("qbm.GaussianState.symplectic_eigenvalues")
    gauss_entropy = _is("qbm.GaussianState.entropy")
    build = _is("darwin.build_pip")
    evals = _method("darwin.", "fragment_mutual_info")
    cli = _is("cli.main")
    c = tr.counts
    n_evals = sp.calls(evals)
    n_mi = sp.calls(mi_branch)
    sym_calls = sp.calls(sym)
    return {
        "qstate.fragment_spec.calls": sp.calls(frag_spec),
        "qstate.fragment_spec.time_s": sp.time(frag_spec),
        "qstate.fragment_spec.per_eval": _ratio(sp.calls(frag_spec), n_evals),
        "qstate.subsystem_entropy.calls": sp.calls(svd),
        "qstate.subsystem_entropy.time_s": sp.time(svd),
        "qstate.subsystem_entropy.svd_elems": c["qstate.subsystem_entropy", "elems"],
        "qstate.reduced_density.time_s": sp.time(_is("qstate.reduced_density")),
        "info.holevo.calls": sp.calls(_is("info.holevo")),
        "info.holevo.time_s": sp.time(_is("info.holevo")),
        "branching.mutual_info.calls": n_mi,
        "branching.mutual_info.time_s": sp.time(mi_branch),
        "branching.mutual_info.self_s": sp.self_time(mi_branch),
        "branching.gram_entropy.calls": sp.calls(gram),
        "branching.gram_entropy.time_s": sp.time(gram),
        "branching.overlap_product.time_s": sp.time(_is("branching.BranchingState.overlap_product")),
        "branching.gram_per_eval": _ratio(sp.nested(gram, mi_branch), n_mi),
        "branching.overlap_elems": c["branching.BranchingState.overlap_product", "elems"],
        "spinmodels.sym_power.calls": sym_calls,
        "spinmodels.sym_power.time_s": sp.time(sym),
        "spinmodels.sym_power.distinct_ratio": _ratio(len(tr.keys["spinmodels.sym_power"]), sym_calls),
        "spinmodels.hazy_mutual_info.calls": sp.calls(hazy_mi),
        "spinmodels.hazy_mutual_info.time_s": sp.time(hazy_mi),
        "spinmodels.hazy_redundancy.time_s": sp.time(hazy_red),
        "spinmodels.hazy_redundancy.sizes_scanned": sp.nested(hazy_mi, hazy_red),
        "spinmodels.interacting_evolve.time_s": sp.time(_is("spinmodels.interacting_evolve")),
        "spinmodels.central_spin_branching.time_s": sp.time(_is("spinmodels.central_spin_branching")),
        "qbm.evolve.time_s": sp.time(_is("qbm.qbm_evolve")),
        "qbm.mutual_info.calls": sp.calls(qbm_mi),
        "qbm.mutual_info.time_s": sp.time(qbm_mi),
        "qbm.symplectic_eigenvalues.calls": sp.calls(eig),
        "qbm.symplectic_eigenvalues.time_s": sp.time(eig),
        "qbm.symplectic_eigenvalues.dim_cubed": c["qbm.GaussianState.symplectic_eigenvalues", "dim_cubed"],
        "qbm.eig_per_entropy": _ratio(sp.nested(eig, qbm_mi), sp.nested(gauss_entropy, qbm_mi)),
        "photon.time_s": sp.time(lambda name: name.startswith("photon.")),
        "envariance.time_s": sp.time(lambda name: name.startswith("envariance.")),
        "darwin.build_pip.time_s": sp.time(build),
        "darwin.build_pip.self_s": sp.self_time(build),
        "darwin.fragment_evals": n_evals,
        "darwin.fragment_mutual_info.self_s": sp.self_time(evals),
        "darwin.mirror_share": _ratio(c["darwin.build_pip", "mirrored"], c["darwin.build_pip", "points"]),
        "darwin.sample_yield": _ratio(c["darwin.build_pip", "kept"], c["darwin.build_pip", "requested"]),
        "darwin.redundancy.time_s": sp.time(_is("darwin.redundancy")),
        "darwin.redundancy_of_decoherence.time_s": sp.time(_is("darwin.redundancy_of_decoherence")),
        "darwin.decohered_evals": sp.calls(_method("darwin.", "decohered_system_entropy")),
        "darwin.observable_sweep.time_s": sp.time(_is("darwin.observable_sweep")),
        "darwin.export.time_s": sp.time(_is("darwin.pip_to_csv", "darwin.pip_manifest",
                                            "darwin.git_blob_sha")),
        "cli.calls": sp.calls(cli),
        "cli.self_s": sp.self_time(cli),
        "cli.bytes_written": bytes_written,
    }
