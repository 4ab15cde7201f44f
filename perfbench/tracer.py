"""Per-layer counters and spans for the benchmark's traced run.

The tracer wraps firmfold functions under the names through which firmfold
itself calls them: optimize() looks up verify, fold_dataflow_fixpoint and
cleanup_round as cfgfold globals, cleanup_round() passes its rules by their
cfgfold global names, the constant-folding wavefront calls fold_not,
fold_binary and fold_phi as constfold globals, and cleanup reaches
fold_assoc_comm as an attribute of constfold. So the wrappers see every call
without any edit to src/. uninstall() puts the originals back.

A name that a later change removes or renames is recorded in `absent` and
skipped, so the traced run still ends and reports the other metrics.
"""

from __future__ import annotations

from time import perf_counter

from firmfold import cfgfold, constfold, isel
from firmfold.ir import FirmGraph

# (owner, attribute, time metric, call-count metric). The time is self time:
# the time inside the call minus the time inside traced calls nested in it.
SPANS = (
    (cfgfold, "verify", "verifier.verify_s", "verifier.calls"),
    (isel, "verify", "verifier.verify_s", "verifier.calls"),
    (cfgfold, "fold_dataflow_fixpoint", "constfold.fixpoint_s", None),
    (cfgfold, "cleanup_round", "cfgfold.cleanup_s", "cfgfold.rounds"),
    (cfgfold, "_exhaust_unused", "cfgfold.unused_sweep_s", None),
    (isel, "run_instruction_selection", "isel.select_s", None),
)

CLEANUP_RULES = (
    "fold_cond",
    "remove_unreachable_block",
    "remove_unreachable_node",
    "remove_unreachable_phi_operand",
    "fix_edge_position",
    "simplify_trivial_phi",
    "merge_blocks",
)

# (owner, attribute, attempts metric, fires metric). A call fires when it
# returns anything but None or False.
COUNTERS = (
    (constfold, "fold_not", "constfold.attempts", "constfold.folds"),
    (constfold, "fold_binary", "constfold.attempts", "constfold.folds"),
    (constfold, "fold_phi", "constfold.attempts", "constfold.folds"),
    (constfold, "fold_assoc_comm", "constfold.assoc.attempts", "constfold.assoc.fires"),
) + tuple(
    (cfgfold, rule, f"cfgfold.{rule}.attempts", f"cfgfold.{rule}.fires")
    for rule in CLEANUP_RULES
)

# (owner, attribute, metric): FirmGraph mutators, counted per call.
CALLS = (
    (FirmGraph, "add_node", "ir.add_node.calls"),
    (FirmGraph, "delete_node", "ir.delete_node.calls"),
    (FirmGraph, "delete_edge", "ir.delete_edge.calls"),
)


class Tracer:
    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.absent: list[str] = []
        self._nested: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for owner, attr, time_key, calls_key in SPANS:
            self._wrap(owner, attr, self._span, time_key, calls_key)
        for owner, attr, attempts_key, fires_key in COUNTERS:
            self._wrap(owner, attr, self._counter, attempts_key, fires_key)
        for owner, attr, key in CALLS:
            self._wrap(owner, attr, self._counter, key, None)
        # redirect_users returns how many edges it moved; those are summed.
        self._wrap(FirmGraph, "redirect_users", self._summed, "ir.redirect_users.edges_moved")

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def take(self) -> dict[str, float]:
        """The values gathered since the last take, which resets them."""
        taken = dict(self.values)
        for key in self.values:
            self.values[key] = 0
        return taken

    def _wrap(self, owner, attr, make, *keys) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        for key in keys:
            if key is not None:
                self.values.setdefault(key, 0)
        self._originals.append((owner, attr, fn))
        setattr(owner, attr, make(fn, *keys))

    def _span(self, fn, time_key, calls_key):
        values, nested = self.values, self._nested

        def span(*args, **kwargs):
            nested.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                values[time_key] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed
                if calls_key is not None:
                    values[calls_key] += 1

        return span

    def _counter(self, fn, attempts_key, fires_key):
        values = self.values

        def counter(*args, **kwargs):
            result = fn(*args, **kwargs)
            values[attempts_key] += 1
            if fires_key is not None and result is not None and result is not False:
                values[fires_key] += 1
            return result

        return counter

    def _summed(self, fn, key):
        values = self.values

        def summed(*args, **kwargs):
            result = fn(*args, **kwargs)
            values[key] += result
            return result

        return summed
