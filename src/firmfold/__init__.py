"""firmfold: local optimization and instruction selection on a graph IR.

The package models functions as typed multigraphs (ir), checks their
structure (verifier), folds constants in wavefronts (constfold),
simplifies control flow (cfgfold), lowers to target kinds (isel),
interprets graphs for differential testing (interp), and round-trips
them through JSON and DOT (graphio). cli wires it all into a command.
"""

from .cfgfold import cleanup_round, optimize
from .constfold import fold_dataflow_fixpoint
from .errors import (
    ContractError,
    FirmfoldError,
    FormatError,
    GraphError,
    InterpreterError,
    NoBlockError,
    PassOutputError,
    VerificationError,
)
from .graphio import GenSpec, export_dot, generate, load, save
from .interp import ExecResult, execute
from .ir import EdgeKind, FirmGraph, NodeKind, Relation
from .isel import run_instruction_selection
from .verifier import Violation, verify

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "EdgeKind",
    "ExecResult",
    "FirmGraph",
    "FirmfoldError",
    "FormatError",
    "GenSpec",
    "GraphError",
    "InterpreterError",
    "NoBlockError",
    "NodeKind",
    "PassOutputError",
    "Relation",
    "VerificationError",
    "Violation",
    "cleanup_round",
    "execute",
    "export_dot",
    "fold_dataflow_fixpoint",
    "generate",
    "load",
    "optimize",
    "run_instruction_selection",
    "save",
    "verify",
    "__version__",
]
