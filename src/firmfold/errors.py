"""Exception types shared across the package."""


class FirmfoldError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(FirmfoldError):
    """A graph mutation or query was used incorrectly (bad ids, illegal
    attributes, incompatible retypes, and the like)."""


class NoBlockError(GraphError):
    """Raised by block_of() when a node has no containing block."""


class FormatError(FirmfoldError):
    """A serialized graph does not match the expected schema."""


class VerificationError(FirmfoldError):
    """A pass was handed (or produced) a graph that fails verification.

    Carries the individual findings so callers can render them.
    """

    def __init__(self, violations, when: str):
        self.violations = list(violations)
        self.when = when
        lines = ", ".join(v.rule for v in self.violations[:8])
        more = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"{when}: {len(self.violations)} verifier finding(s): {lines}{more}")


class ContractError(FirmfoldError):
    """A pipeline-level guarantee was broken (round limit exceeded,
    instruction selection run on the wrong input, or IR leftovers)."""


class PassOutputError(VerificationError, ContractError):
    """A pass's exit check found its own output failing verification: a
    broken contract that carries the findings."""


class InterpreterError(FirmfoldError):
    """The interpreter was handed something it cannot run: a missing
    input value, a block without a control transfer, or a malformed
    dataflow shape. Distinct from a trap, which is a defined outcome."""
