"""Runtime helpers shared by the interpreter and the generated query code.

The central piece is :func:`scan_blocks`: the block enumerator every SMC
scan goes through.  It implements the paper's block-access consistency
protocol for compaction groups (section 5.2):

* blocks that belong to no compaction group are yielded as-is;
* a *finished* group contributes its compacted destination block (once);
* a group reached during the compactor's **moving phase** is relocated by
  the reader ("helping") and the destination block is scanned;
* a group reached during the **waiting phase** is deferred to the end of
  the scan; if the moving phase has begun by then the reader helps,
  otherwise it pins the group's pre-relocation state with the group's
  query counter and scans the source blocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.sanitizer import hooks as _san

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.block import Block
    from repro.memory.context import MemoryContext
    from repro.memory.manager import MemoryManager


#: Resolution kinds returned by :func:`resolve_group`.
GROUP_BLOCKS = "blocks"  # plain block list, no pin held
GROUP_PINNED = "pinned"  # block list valid while the pre-state pin is held
GROUP_DEFERRED = "deferred"  # waiting-phase conflict: revisit after the scan


def resolve_group(manager: "MemoryManager", group, defer_ok: bool = True):
    """Decide how a scan must visit one compaction group (section 5.2).

    Returns ``(kind, blocks)``:

    * ``GROUP_BLOCKS`` — scan *blocks* as-is (a settled group's pre-state
      or destination, or a moving-phase group the caller just helped
      relocate);
    * ``GROUP_PINNED`` — *blocks* are the group's pre-state members and
      the group's query counter is **held**: the caller must call
      ``group.unpin_prestate()`` once done with them;
    * ``GROUP_DEFERRED`` — the reader's local epoch conflicts with the
      upcoming relocation epoch; re-resolve with ``defer_ok=False`` after
      every other block has been processed.

    The pre-state member set is ``sources + attached destination``:
    already-moved rows sit VALID in the destination (limbo in their old
    source slot), unmoved rows sit VALID in the sources, so the union
    holds exactly one live copy of every object.  The per-scan emitted
    set de-duplicates blocks that also appear in the scan's snapshot.

    Shared by the serial generator below and the parallel morsel
    dispatcher, so both paths follow the identical protocol.
    """
    while True:
        if group.failed:
            return GROUP_BLOCKS, group.members_prestate()
        if group.finished:
            dest = group.dest
            return GROUP_BLOCKS, ([dest] if dest is not None else [])
        if manager.compactor is None:
            # The compactor died mid-cycle (crash injection / recovery):
            # nothing will ever move again, so the pre-state members hold
            # every live row of the group exactly once.
            return GROUP_BLOCKS, group.members_prestate()
        if manager.in_moving_phase:
            dest = manager.compactor.help_group(group)
            if dest is not None:
                return GROUP_BLOCKS, [dest]
            # Group failed (or finished empty); loop to classify it.
            continue
        if (
            defer_ok
            and manager.next_relocation_epoch is not None
            and manager.epochs.local_epoch() == manager.next_relocation_epoch
        ):
            # Waiting phase: process the remaining blocks first (paper
            # section 5.2), revisit the group afterwards.
            return GROUP_DEFERRED, []
        # Freezing epoch, or no active relocation conflict: pin the
        # group's pre-state for the duration of the caller's use of it.
        if group.try_pin_prestate():
            return GROUP_PINNED, group.members_prestate()
        if not (group.finished or group.failed):
            # Pin refused because a mover claimed the group (possibly
            # between retry rounds, outside the manager's moving phase):
            # drive it to a settled state ourselves, then re-classify.
            dest = manager.compactor.help_group(group)
            if dest is not None:
                return GROUP_BLOCKS, [dest]


def scan_blocks(manager: "MemoryManager", context: "MemoryContext") -> Iterator["Block"]:
    """Yield the blocks a scan of *context* must visit, exactly once each.

    Must be driven to completion (or closed) by the caller: pre-state pins
    on compaction groups are released in a ``finally`` when the generator
    is exhausted or closed.
    """
    blocks = context.blocks()
    emitted = set()
    seen_groups = set()
    deferred = []

    def emit(block: "Block"):
        if block.block_id not in emitted:
            emitted.add(block.block_id)
            if _san.SANITIZER is not None:
                _san.SANITIZER.event("scan.block", block=block)
            return True
        return False

    for block in blocks:
        group = block.compaction_group
        if group is None:
            if emit(block):
                yield block
            continue
        if id(group) in seen_groups:
            continue
        seen_groups.add(id(group))
        kind, members = resolve_group(manager, group)
        if kind == GROUP_DEFERRED:
            deferred.append(group)
            continue
        yield from _emit_resolved(group, kind, members, emit)

    for group in deferred:
        kind, members = resolve_group(manager, group, defer_ok=False)
        yield from _emit_resolved(group, kind, members, emit)


def _emit_resolved(group, kind, members, emit) -> Iterator["Block"]:
    """Yield a resolved group's blocks, releasing the pre-state pin (if
    held) once the caller is done consuming them."""
    if kind == GROUP_PINNED:
        try:
            for block in members:
                if emit(block):
                    yield block
        finally:
            group.unpin_prestate()
    else:
        for block in members:
            if emit(block):
                yield block
