"""Exception types for the SMC runtime.

The paper (EDBT 2017, section 2) specifies that dereferencing a reference to
an object that has been removed from its host collection raises a
null-reference exception.  We mirror the .NET exception names with Python
naming conventions.
"""

from __future__ import annotations


class SmcError(Exception):
    """Base class for all errors raised by the SMC runtime."""


class NullReferenceError(SmcError):
    """Raised when dereferencing a reference whose object has been freed.

    This is the Python analogue of the ``NullReferenceException`` the paper's
    runtime throws when the incarnation number stored in a reference no
    longer matches the incarnation number of its indirection-table entry
    (section 3.1).
    """


class TabularTypeError(SmcError, TypeError):
    """Raised when a class violates the static rules for tabular types.

    Section 2 of the paper requires that tabular classes only reference
    other tabular classes, are not defined on base classes or interfaces,
    and have a fixed size and memory layout.
    """


class MemoryExhaustedError(SmcError, MemoryError):
    """Raised when the address space cannot host another block."""


class IncarnationOverflowError(SmcError):
    """Raised internally when a slot's 29-bit incarnation counter overflows.

    The paper (section 3.1) stops reusing such memory slots; callers treat
    this as "retire the slot".
    """


class ConcurrencyProtocolError(SmcError):
    """Raised when the epoch/compaction protocol is used incorrectly.

    Examples: freeing an object outside any registered thread, exiting a
    critical section that was never entered, or starting a compaction while
    one is already running.
    """


class ProtocolViolation(SmcError):
    """Raised by the protocol sanitizer when a core invariant is broken.

    Unlike :class:`ConcurrencyProtocolError` (API misuse surfaced by the
    runtime itself), a protocol violation means the *memory-reclamation
    protocol state* is inconsistent — a slot left limbo before its safety
    epoch, an incarnation counter regressed, a FROZEN bit appeared on a
    FREE slot, and so on.  Carries the violated invariant's name and the
    tail of the sanitizer's event trace for post-mortem debugging.
    """

    def __init__(self, invariant: str, message: str, trace=()) -> None:
        self.invariant = invariant
        self.trace = list(trace)
        detail = message
        if self.trace:
            tail = "\n".join(f"    {line}" for line in self.trace[-20:])
            detail = f"{message}\n  event trace (most recent last):\n{tail}"
        super().__init__(f"[{invariant}] {detail}")


class InjectedFaultError(SmcError):
    """Raised by the sanitizer's fault-injection harness.

    Marks deliberately injected failures (e.g. a simulated compactor crash
    mid-relocation) so tests can distinguish them from genuine errors.
    """
