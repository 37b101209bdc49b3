"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces functions at their import sites in ``rigidity_kit``,
``rigidity_kit.rigidity``, ``rigidity_kit.orthogonal`` and
``rigidity_kit.cli`` with wrappers, plus ``Diagram.check_label`` on the
class.  Nothing under ``src/`` is edited: each repetition imports the
package afresh and the wrappers are installed on that copy.

Two kinds of wrapper:

* a *span* (the rigidity, orthogonal and cli entry points) records name,
  start, end, parent and thread, kept in memory and written out at the end;
* a *leaf* (the quiver and euclid functions those modules import, and
  ``check_label``) is called millions of times, so it only counts calls
  and adds its duration to the enclosing span.  A leaf called inside
  another leaf is counted but not timed again.

Self time of a span is its duration minus the union of its child spans and
minus the leaves timed directly under it.  ``cli verify`` runs its sweeps
on a thread pool; pure-Python threads take turns on the interpreter lock,
so while k pool threads are inside spans each is charged 1/k of the wall
time.  Self times therefore sum to at most the traced wall time.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

# Span records are lists for cheap in-place updates.
NAME, START, END, PARENT, THREAD, QUIVER_NS, HAMMOCK_NS, EUCLID_NS = range(8)

SPANS = {
    "rigidity": ("rd_closed", "rd_oracle", "se_oracle", "omega_period", "endpoint_scan"),
    "orthogonal": ("is_maximal_orthogonal", "rigdim_closed", "rigdim_verify"),
    "cli": ("main",),
}
# the quiver functions that rigidity, orthogonal and cli import
QUIVER_LEAVES = (
    "omega", "group_generator", "group_member", "orbit_reps", "tau",
    "hammock_minus", "hammock_plus", "hammock_dot", "orbit_quiver_dot",
)
EUCLID_LEAVES = ("weight_sequence",)
IMPORT_SITES = ("pkg", "rigidity", "orthogonal", "cli")

# Per-layer metrics and their units, in the order they are reported.
PER_LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "rigidity.rd_oracle.calls": "count",
    "rigidity.rd_oracle.self_s": "s",
    "rigidity.omega_period.self_s": "s",
    "rigidity.se_oracle.self_s": "s",
    "rigidity.oracle_steps": "count",
    "rigidity.useful_step_ratio": "ratio",
    "rigidity.rd_closed.calls": "count",
    "rigidity.rd_closed.self_s": "s",
    "quiver.omega.calls": "count",
    "quiver.group_generator.calls": "count",
    "quiver.group_member.calls": "count",
    "quiver.check_label.calls": "count",
    "quiver.self_s": "s",
    "quiver.hammock_minus.calls": "count",
    "quiver.hammock_minus.cold_calls": "count",
    "quiver.hammock_minus.self_s": "s",
    "euclid.weight_sequence.calls": "count",
    "euclid.weight_sequence.self_s": "s",
    "euclid.weight_sequence.repeat_ratio": "ratio",
    "orthogonal.is_maximal_orthogonal.calls": "count",
    "orthogonal.is_maximal_orthogonal.self_s": "s",
    "orthogonal.cover_steps": "count",
    "orthogonal.cells_scanned": "count",
    "orthogonal.rigdim_verify.calls": "count",
    "trace.overhead_ratio": "ratio",
}


def import_sites(mods) -> list:
    return [getattr(mods, name) for name in IMPORT_SITES if getattr(mods, name) is not None]


def replace_at_sites(mods, original, replacement) -> None:
    """Point every import site that holds ``original`` at ``replacement``."""
    for module in import_sites(mods):
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


class _ThreadState(threading.local):
    def __init__(self, registry: list) -> None:
        self.stack: list = []
        self.in_leaf = False
        self.oracle_depth = 0
        self.last_period = 0
        self.counts: dict = defaultdict(int)
        self.orphan_ns: dict = defaultdict(int)
        # the attributes of a thread vanish with it; its totals must not
        registry.append((self.counts, self.orphan_ns))


class Tracer:
    """Spans and counters for one repetition of a workload."""

    def __init__(self) -> None:
        self.spans: list = []
        self._states: list = []
        self._state = _ThreadState(self._states)
        self._root = None
        self._main = threading.main_thread().ident
        self.hammock_keys: set = set()
        self.euclid_pairs: set = set()

    # -- installation -----------------------------------------------------

    def install(self, mods) -> None:
        for module_name, names in SPANS.items():
            module = getattr(mods, module_name)
            if module is None:
                continue
            for name in names:
                original = getattr(module, name)
                replace_at_sites(mods, original, self._span(f"{module_name}.{name}", original))
        for name in QUIVER_LEAVES:
            original = getattr(mods.quiver, name)
            replace_at_sites(mods, original, self._leaf(f"quiver.{name}", original))
        for name in EUCLID_LEAVES:
            original = getattr(mods.euclid, name)
            replace_at_sites(mods, original, self._leaf(f"euclid.{name}", original))
        diagram = mods.quiver.Diagram
        diagram.check_label = self._leaf("quiver.check_label", diagram.check_label)

    def _span(self, name: str, fn):
        state, spans, clock, get_ident = self._state, self.spans, time.perf_counter_ns, threading.get_ident
        main = self._main
        oracle = name == "rigidity.rd_oracle"
        period = name == "rigidity.omega_period"
        certificate = name == "orthogonal.is_maximal_orthogonal"

        def wrapper(*args, **kwargs):
            stack = state.stack
            tid = get_ident()
            rec = [name, 0, 0, stack[-1] if stack else self._root, tid, 0, 0, 0]
            top = not stack and tid == main
            if top:
                self._root = rec
            if oracle:
                state.oracle_depth += 1
            elif certificate:
                atype, r = args[0], args[2]
                state.counts["orthogonal.cover_steps"] += r * atype.s
                state.counts["orthogonal.cells_scanned"] += atype.period * len(atype.diagram.labels)
            stack.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if top:
                    self._root = None
                if oracle:
                    state.oracle_depth -= 1
            spans.append(rec)
            if oracle:
                state.counts["rigidity.useful_steps"] += (
                    result.witness if result.witness is not None else state.last_period
                )
            elif period:
                state.last_period = result
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name: str, fn):
        state, clock = self._state, time.perf_counter_ns
        slot = EUCLID_NS if name.startswith("euclid.") else QUIVER_NS
        hammock = name == "quiver.hammock_minus"
        omega = name == "quiver.omega"
        euclid = slot == EUCLID_NS
        keys, pairs = self.hammock_keys, self.euclid_pairs

        def wrapper(*args, **kwargs):
            counts = state.counts
            counts[name] += 1
            if hammock:
                diagram, v = args
                key = (diagram.family, diagram.rank, v.t)
                if key not in keys:
                    keys.add(key)
                    counts["quiver.hammock_minus.cold_calls"] += 1
            elif omega and state.oracle_depth:
                counts["rigidity.oracle_steps"] += 1
            elif euclid:
                pairs.add(args)
            if state.in_leaf:
                return fn(*args, **kwargs)
            state.in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                state.in_leaf = False
                stack = state.stack
                rec = stack[-1] if stack else None
                if rec is None:
                    state.orphan_ns[slot] += dt
                    if hammock:
                        state.orphan_ns[HAMMOCK_NS] += dt
                else:
                    rec[slot] += dt
                    if hammock:
                        rec[HAMMOCK_NS] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ------------------------------------------------------

    def counts(self) -> dict:
        total: dict = defaultdict(int)
        for counts, _ in self._states:
            for key, value in counts.items():
                total[key] += value
        return total

    def _shares(self) -> dict:
        """Fraction of each pool-thread top span's duration charged to it.

        A top span is the outermost span of a thread other than the main
        one.  While k of them are open at once, each is charged 1/k.
        """
        tops = [s for s in self.spans if s[THREAD] != self._main
                and (s[PARENT] is None or s[PARENT][THREAD] != s[THREAD])]
        events = sorted([(s[START], 1, id(s)) for s in tops] + [(s[END], -1, id(s)) for s in tops])
        charged = {id(s): 0.0 for s in tops}
        open_ids: set = set()
        last = None
        for t, kind, sid in events:
            if open_ids and last is not None and t > last:
                piece = (t - last) / len(open_ids)
                for oid in open_ids:
                    charged[oid] += piece
            last = t
            if kind == 1:
                open_ids.add(sid)
            else:
                open_ids.discard(sid)
        return {
            id(s): (charged[id(s)] / (s[END] - s[START]) if s[END] > s[START] else 1.0) for s in tops
        }

    def self_times(self) -> list:
        """(span, self_ns, share) for every span, shares applied to pool threads."""
        children: dict = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None:
                children[id(s[PARENT])].append((s[START], s[END]))
        shares = self._shares()
        out = []
        for s in self.spans:
            covered = 0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(id(s), ())):
                lo, hi = max(lo, s[START]), min(hi, s[END])
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            own = (s[END] - s[START]) - covered - s[QUIVER_NS] - s[EUCLID_NS]
            out.append((s, max(own, 0), self._share_of(s, shares)))
        return out

    @staticmethod
    def _share_of(span, shares: dict) -> float:
        while id(span) not in shares:
            parent = span[PARENT]
            if parent is None or parent[THREAD] != span[THREAD]:
                return 1.0
            span = parent
        return shares[id(span)]

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this repetition, without the overhead ratio."""
        counts = self.counts()
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        layer = {QUIVER_NS: 0.0, HAMMOCK_NS: 0.0, EUCLID_NS: 0.0}
        for span, own_ns, share in self.self_times():
            self_s[span[NAME]] += own_ns * share / 1e9
            calls[span[NAME]] += 1
            for slot in layer:
                layer[slot] += span[slot] * share / 1e9
        for _, orphan_ns in self._states:
            for slot, ns in orphan_ns.items():
                layer[slot] += ns / 1e9
        steps = counts["rigidity.oracle_steps"]
        pairs = len(self.euclid_pairs)
        metrics = {
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "rigidity.rd_oracle.calls": calls["rigidity.rd_oracle"],
            "rigidity.rd_oracle.self_s": self_s["rigidity.rd_oracle"],
            "rigidity.omega_period.self_s": self_s["rigidity.omega_period"],
            "rigidity.se_oracle.self_s": self_s["rigidity.se_oracle"],
            "rigidity.oracle_steps": steps,
            "rigidity.useful_step_ratio": counts["rigidity.useful_steps"] / steps if steps else 0.0,
            "rigidity.rd_closed.calls": calls["rigidity.rd_closed"],
            "rigidity.rd_closed.self_s": self_s["rigidity.rd_closed"],
            "quiver.omega.calls": counts["quiver.omega"],
            "quiver.group_generator.calls": counts["quiver.group_generator"],
            "quiver.group_member.calls": counts["quiver.group_member"],
            "quiver.check_label.calls": counts["quiver.check_label"],
            "quiver.self_s": layer[QUIVER_NS],
            "quiver.hammock_minus.calls": counts["quiver.hammock_minus"],
            "quiver.hammock_minus.cold_calls": counts["quiver.hammock_minus.cold_calls"],
            "quiver.hammock_minus.self_s": layer[HAMMOCK_NS],
            "euclid.weight_sequence.calls": counts["euclid.weight_sequence"],
            "euclid.weight_sequence.self_s": layer[EUCLID_NS],
            "euclid.weight_sequence.repeat_ratio": (
                counts["euclid.weight_sequence"] / pairs if pairs else 0.0
            ),
            "orthogonal.is_maximal_orthogonal.calls": calls["orthogonal.is_maximal_orthogonal"],
            "orthogonal.is_maximal_orthogonal.self_s": self_s["orthogonal.is_maximal_orthogonal"],
            "orthogonal.cover_steps": counts["orthogonal.cover_steps"],
            "orthogonal.cells_scanned": counts["orthogonal.cells_scanned"],
            "orthogonal.rigdim_verify.calls": calls["orthogonal.rigdim_verify"],
        }
        return metrics

    def self_sum_s(self) -> float:
        """Sum of all self times and timed leaves, for the wall-time bound."""
        total = sum(
            (own + span[QUIVER_NS] + span[EUCLID_NS]) * share
            for span, own, share in self.self_times()
        )
        total += sum(orphan[QUIVER_NS] + orphan[EUCLID_NS] for _, orphan in self._states)
        return total / 1e9

    def write(self, path, metadata: dict) -> None:
        """Write the spans as ``[name, start_ns, end_ns, parent, thread]`` rows.

        ``name`` and ``thread`` index the ``names`` and ``threads`` lists,
        ``parent`` is a row index or null, and times count from the first span.
        """
        rows = {id(s): i for i, s in enumerate(self.spans)}
        names = sorted({s[NAME] for s in self.spans})
        threads = sorted({s[THREAD] for s in self.spans})
        name_ix = {n: i for i, n in enumerate(names)}
        thread_ix = {t: i for i, t in enumerate(threads)}
        origin = min((s[START] for s in self.spans), default=0)
        spans = [
            [name_ix[s[NAME]], s[START] - origin, s[END] - origin,
             rows[id(s[PARENT])] if s[PARENT] is not None else None, thread_ix[s[THREAD]]]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"metadata": metadata, "names": names, "threads": threads,
                       "spans": spans}, fh, separators=(",", ":"))
