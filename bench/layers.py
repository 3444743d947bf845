"""Per-layer tracing of supermod from outside the package.

Tracer.install wraps every public function of the seven package modules,
the public methods of Poset, DownSetLattice and Game, every module-level
name bound to one of those functions by `from .x import f`, and function
values held in module-level dicts such as cli._CLASS_CHECKS.  uninstall
puts the originals back, so untraced batches run the unmodified program.

Each wrapped call is a span (name, start, end, parent, operation id); spans
stay in memory and are written out once at the end.  Per-element functions
in HOT only add to a call count and a time.  A layer's self time is the
time of its calls minus the time of the wrapped calls they make.
"""

from __future__ import annotations

import itertools
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "poset", "lattice", "game", "marginals", "cone", "qlin")
LIBRARY = LAYERS[1:]
CLASSES = {"poset": ("Poset",), "lattice": ("DownSetLattice",), "game": ("Game",)}

# Element accessors called millions of times from other layers; a wrapper
# would cost more than the lookup itself, so their time stays with the caller.
UNWRAPPED = {"lattice.DownSetLattice.position", "game.Game.value"}

# Called once per element, pair or chain: counted and timed, no span each.
HOT = {
    "lattice.DownSetLattice.mobius",
    "lattice.DownSetLattice.interval",
    "lattice.DownSetLattice.is_boolean_interval",
    "lattice.DownSetLattice.addable_mask",
    "lattice.DownSetLattice.upper_covers",
    "lattice.DownSetLattice.lower_covers",
    "lattice.DownSetLattice.join_irreducible_predecessor",
    "marginals.payoff",
    "marginals.marginal_vector",
    "poset.players_from_mask",
    "poset.mask_from_players",
    "poset.Poset.leq",
    "poset.Poset.comparable",
    "poset.Poset.principal_down_set",
    "poset.Poset.strict_down_set",
    "game.Game.__init__",
    "game.Game.is_zero",
    "game.Game.to_mapping",
    "cli.coalition_key",
    "cli.compact",
    "cli.format_perm",
    "cli.parse_coalition",
    "cli.parse_value",
    "cli.vector_payload",
    "qlin.normalize_ray",
}

LOADERS = ("cli.load_poset", "cli.load_lattice", "cli.load_game")

# Each workload's predicted dominant layers: they must hold more than half of
# the library self time.
DOMINANT = {
    "enumerate": ("cone", "qlin", "marginals"),
    "classify": ("game", "lattice"),
    "core": ("lattice", "marginals"),
}


def deep_mib(obj):
    """Memory held by a nest of tuples and lists, shared objects counted once."""
    seen = set()
    total = 0
    todo = [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, (tuple, list)):
            todo.extend(o)
    return total / 2**20


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent span id, operation id, name, start, end)
        self.stack = []  # open calls: [time spent in wrapped callees, span id]
        self.active = Counter()  # open calls per name
        self.self_s = defaultdict(float)  # per layer
        self.incl_s = defaultdict(float)  # per name, outermost calls only
        self.calls = Counter()
        self.counts = Counter()  # derived counters and times
        self.peak_mib = defaultdict(float)
        self.op_id = 0
        self.op_spans = 0
        self._next_span_id = itertools.count(1).__next__
        self.ops_without_library_span = []
        self.hook_errors = Counter()  # derived counters that could not be updated
        self._op_tables = {}  # pair and chain tables seen in this operation, by id
        self._table_mib = {}  # (kind, poset) -> size; tables depend only on the poset
        self._restore = []
        self._wrappers = {}  # original function -> wrapper
        self._modules = {}

    # -- installing ------------------------------------------------------------------

    def install(self, package):
        """Wrap the layer modules of the imported package `package`."""
        self._modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        for layer, mod in self._modules.items():
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    self._wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    qual = f"{layer}.{cls_name}.{attr}"
                    if (attr.startswith("_") and attr != "__init__") or qual in UNWRAPPED:
                        continue
                    if isinstance(obj, types.FunctionType):
                        self._set(cls, attr, self._wrap(qual, layer, obj))
                    elif isinstance(obj, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(qual, layer, obj.__func__)))
        for mod in self._package_modules(package):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    self._set(mod, attr, self._wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if isinstance(val, types.FunctionType) and val in self._wrappers:
                            self._restore.append((obj.__setitem__, key, val))
                            obj[key] = self._wrappers[val]

    def uninstall(self):
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    def _set(self, owner, attr, value):
        original = vars(owner)[attr]
        self._restore.append((lambda k, v, o=owner: setattr(o, k, v), attr, original))
        setattr(owner, attr, value)

    @staticmethod
    def _package_modules(package):
        prefix = package.__name__ + "."
        return [m for name, m in list(sys.modules.items()) if name == package.__name__ or name.startswith(prefix)]

    def coverage_gaps(self):
        """Package functions still reachable unwrapped: module-level names of
        the layers (own and bound by `from .x import f`), the values of
        cli._CLASS_CHECKS and the public DownSetLattice methods."""
        pkg = self._modules["cli"].__name__.rpartition(".")[0]

        def unwrapped(obj):
            return (
                isinstance(obj, types.FunctionType)
                and obj.__module__.startswith(pkg)
                and not hasattr(obj, "__wrapped__")
            )

        gaps = [
            f"{layer}.{attr}"
            for layer, mod in self._modules.items()
            for attr, obj in vars(mod).items()
            if not attr.startswith("_") and unwrapped(obj)
        ]
        checks = getattr(self._modules["cli"], "_CLASS_CHECKS", {})
        gaps += [f"cli._CLASS_CHECKS[{key!r}]" for key, fn in checks.items() if unwrapped(fn)]
        lattice_cls = self._modules["lattice"].DownSetLattice
        gaps += [
            f"lattice.DownSetLattice.{attr}"
            for attr, obj in vars(lattice_cls).items()
            if not attr.startswith("_")
            and f"lattice.DownSetLattice.{attr}" not in UNWRAPPED
            and unwrapped(obj)
        ]
        return gaps

    # -- recording -------------------------------------------------------------------

    def _wrap(self, name, layer, fn):
        tracer = self
        stack = self.stack
        active = self.active
        hot = name in HOT
        hook = _HOOKS.get(name)
        library = layer != "cli"

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = parent if hot else tracer._next_span_id()
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                dt = t1 - t0
                tracer.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if not active[name]:
                    tracer.incl_s[name] += dt
                tracer.calls[name] += 1
                if not hot:
                    tracer.spans.append((span_id, parent, tracer.op_id, name, t0, t1))
                    if library:
                        tracer.op_spans += 1
            if hook is not None:
                try:
                    hook(tracer, args, result, dt)
                except Exception as exc:  # a counter must not change the program's result
                    tracer.hook_errors[f"{name}: {type(exc).__name__}: {exc}"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def begin_op(self):
        self.op_id += 1
        self.op_spans = 0

    def end_op(self, argv):
        if not self.op_spans:
            self.ops_without_library_span.append(" ".join(argv))
        self._op_tables.clear()

    def _table(self, kind, lattice, table):
        """Count a pair or chain table the first time an operation sees it."""
        if id(table) in self._op_tables:
            return
        self._op_tables[id(table)] = table  # held, so the id is not reused
        self.counts[f"lattice.{kind}"] += len(table)
        key = (kind, lattice.poset)
        if key not in self._table_mib:
            self._table_mib[key] = deep_mib(table)
        self.peak_mib[kind] = max(self.peak_mib[kind], self._table_mib[key])

    # -- results ---------------------------------------------------------------------

    def layer_metrics(self, batches):
        """Per-layer metrics, each per traced batch."""
        ms = 1000.0 / batches
        inc = self.incl_s
        c = self.counts
        out = {f"{layer}.self_ms": self.self_s[layer] * ms for layer in LAYERS}
        out.update({
            "cli.load_ms": c["cli.load_s"] * ms,
            "cli.emit_ms": inc["cli.emit"] * ms,
            "lattice.build_ms": inc["lattice.DownSetLattice.__init__"] * ms,
            "lattice.builds": self.calls["lattice.DownSetLattice.__init__"] / batches,
            "lattice.elements": c["lattice.elements"] / batches,
            "lattice.pairs_ms": inc["lattice.DownSetLattice.incomparable_pairs"] * ms,
            "lattice.pairs": c["lattice.pairs"] / batches,
            "lattice.pairs_peak_mib": self.peak_mib["pairs"],
            "lattice.chains_ms": inc["lattice.DownSetLattice.maximal_chains"] * ms,
            "lattice.chains": c["lattice.chains"] / batches,
            "lattice.chains_peak_mib": self.peak_mib["chains"],
            "lattice.mobius_calls": self.calls["lattice.DownSetLattice.mobius"] / batches,
            "lattice.mobius_ms": inc["lattice.DownSetLattice.mobius"] * ms,
            "game.mobius_transform_ms": inc["game.mobius_transform"] * ms,
            "game.is_supermodular_ms": inc["game.is_supermodular"] * ms,
            "game.is_modular_ms": inc["game.is_modular"] * ms,
            "game.zero_normalize_ms": inc["game.zero_normalize"] * ms,
            "marginals.marginal_vector_calls": self.calls["marginals.marginal_vector"] / batches,
            "marginals.marginal_vector_ms": inc["marginals.marginal_vector"] * ms,
            "marginals.payoff_calls": self.calls["marginals.payoff"] / batches,
            "marginals.payoff_ms": inc["marginals.payoff"] * ms,
            "marginals.tight_family_ms": inc["marginals.tight_family"] * ms,
            "cone.dd_ms": inc["cone.double_description"] * ms,
            "cone.dd_rows": c["cone.dd_rows"] / batches,
            "cone.dd_rays": c["cone.dd_rays"] / batches,
            "qlin.rank.dd_calls": c["qlin.rank.dd_calls"] / batches,
            "qlin.rank.dd_ms": c["qlin.rank.dd_s"] * ms,
            "cone.verify_ms": c["cone.verify_s"] * ms,
            "cone.verify_to_dd": (
                c["cone.verify_s"] / inc["cone.double_description"]
                if inc["cone.double_description"] else 0.0
            ),
            "cone.payoff_system_ms": inc["cone.payoff_equality_system"] * ms,
            "cone.payoff_system_cells": c["cone.payoff_system_cells"] / batches,
            "cone.game_system_ms": inc["cone.game_equality_system"] * ms,
            "cone.game_system_cells": c["cone.game_system_cells"] / batches,
            "qlin.rank.extreme_calls": c["qlin.rank.extreme_calls"] / batches,
            "qlin.rank.extreme_ms": c["qlin.rank.extreme_s"] * ms,
            "qlin.rank_cells": c["qlin.rank_cells"] / batches,
            "cone.dim_rerun_ms": c["cone.dim_rerun_s"] * ms,
        })
        return out

    def dominant_share(self, workload):
        lib = sum(self.self_s[layer] for layer in LIBRARY)
        dom = sum(self.self_s[layer] for layer in DOMINANT[workload])
        return dom / lib if lib else 0.0

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")


# -- derived counters, updated after a wrapped call returns ------------------------------


def _on_lattice_init(tr, args, result, dt):
    tr.counts["lattice.elements"] += len(args[0].elements)


def _on_pairs(tr, args, result, dt):
    tr._table("pairs", args[0], result)


def _on_chains(tr, args, result, dt):
    tr._table("chains", args[0], result)


def _on_loader(tr, args, result, dt):
    if not any(tr.active[name] for name in LOADERS):
        tr.counts["cli.load_s"] += dt


def _on_dd(tr, args, result, dt):
    tr.counts["cone.dd_rows"] += len(args[0])
    tr.counts["cone.dd_rays"] += len(result)


def _cells(rows, ncols):
    return len(rows) * ncols


def _on_payoff_system(tr, args, result, dt):
    tr.counts["cone.payoff_system_cells"] += _cells(*result)


def _on_game_system(tr, args, result, dt):
    tr.counts["cone.game_system_cells"] += _cells(*result)


def _on_rank(tr, args, result, dt):
    rows = args[0]
    tr.counts["qlin.rank_cells"] += _cells(rows, len(rows[0]) if rows else 0)
    if tr.active["cone.double_description"]:
        tr.counts["qlin.rank.dd_calls"] += 1
        tr.counts["qlin.rank.dd_s"] += dt
    elif tr.active["cone.is_extreme"] or tr.active["cone.is_extreme_via_games"]:
        tr.counts["qlin.rank.extreme_calls"] += 1
        tr.counts["qlin.rank.extreme_s"] += dt


def _on_extremality(tr, args, result, dt):
    if tr.active["cone.extreme_rays"]:
        tr.counts["cone.verify_s"] += dt


def _on_extreme_rays(tr, args, result, dt):
    if tr.active["cone.cone_dimension"]:
        tr.counts["cone.dim_rerun_s"] += dt


_HOOKS = {
    "lattice.DownSetLattice.__init__": _on_lattice_init,
    "lattice.DownSetLattice.incomparable_pairs": _on_pairs,
    "lattice.DownSetLattice.maximal_chains": _on_chains,
    "cone.double_description": _on_dd,
    "cone.payoff_equality_system": _on_payoff_system,
    "cone.game_equality_system": _on_game_system,
    "qlin.rank": _on_rank,
    "cone.is_extreme": _on_extremality,
    "cone.is_extreme_via_games": _on_extremality,
    "cone.extreme_rays": _on_extreme_rays,
    **{name: _on_loader for name in LOADERS},
}
