"""The every-round driver, kept as the oracle for optimize's due rules.

reference_optimize verifies the graph, deletes dead code, then runs the
dataflow fixpoint and a full cleanup_round each round until a round changes
nothing, and verifies again. Every rule runs every round, so the last round
only proves the fixpoint. optimize skips a rule only where it would find no
match, so on every graph both must leave the same graph, byte for byte.
"""

from __future__ import annotations

from typing import Callable

from firmfold.cfgfold import _exhaust_unused, cleanup_round
from firmfold.constfold import fold_dataflow_fixpoint
from firmfold.errors import VerificationError
from firmfold.ir import FirmGraph
from firmfold.verifier import verify


def reference_optimize(
    g: FirmGraph, on_round: Callable[[int, FirmGraph], None] | None = None
) -> bool:
    """optimize as it ran before it kept a set of due rules; True when the
    graph changed."""
    findings = verify(g)
    if findings:
        raise VerificationError(findings, "before optimize")
    changed_ever = _exhaust_unused(g)
    rounds = 0
    while True:
        rounds += 1
        folded = fold_dataflow_fixpoint(g)
        cleaned = cleanup_round(g)
        changed_ever = changed_ever or folded or cleaned
        if on_round is not None:
            on_round(rounds, g)
        if not folded and not cleaned:
            break
    findings = verify(g)
    if findings:
        raise VerificationError(findings, "after optimize")
    return changed_ever
