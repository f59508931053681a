"""Snapshots of self-managed collections: block images on disk.

The paper's motivating application "on startup, loads a company's most
recent business data into collections of managed objects" (section 1).
Objects of a self-managed collection already live in raw, self-describing
blocks, every stored address is relative to a block id, and every
reference goes through the indirection table — so block bytes are
position-independent.  A snapshot therefore *is* the blocks: saving is a
sequence of buffer writes, loading reads each buffer back into place and
recounts what the bytes imply.  No object is ever visited.

Format ``SMCSNAP2`` (little-endian)::

    magic   b"SMCSNAP2"
    u32     header length | u32 header CRC32
    header  UTF-8 JSON:
              block_shift, direct_pointers                 manager parameters
              string_dict                                  true (the one string
                                                           encoding: codes)
              align                                        section alignment
              collections: per collection, in save order
                name, schema, fields [[name, type, meta]]  validated on load
                columnar, dict_fields                      storage layout
                blocks [block id]                          enumeration order
                rows
                (older writers add ``indexes [[field, kind]]``: secondary
                indexes were derived data, and the loader ignores them)
              heap: blocks [[block id, bump offset]], bytes_in_use
              dicts: [schema]                              one per StringDict
    sections, each a 32-byte frame
              b"SECT" | u32 kind | i64 id | u64 length | u32 CRC32 | pad
            placed so that the payload behind it starts on an ``align``
            boundary (a follow-up can map block images in place):

      kind        id            payload
      heap-block  block id      raw buffer of one string-heap block
      heap-free   record count  i64 (size class, address) per reusable record
      table       entry count   i64 address per entry, then u32 incarnation
      dict        index         i64 heap address per code, then i64 refcount
                                (texts live in the heap records only)
      block       block id      raw buffer of one data block
      end         section count empty; anything after it is an error

Saving writes each buffer as it is, with two exceptions that make an
image a function of the store's content rather than of the writing
process: state that only protects that process's readers is dropped —
LIMBO slots are written FREE, entries that are retired but not yet
recycled (or belong to a collection outside the snapshot) are written
null, FROZEN/LOCKED bits are cleared, string records and dictionary codes
in their reuse grace period are written reusable — and block headers are
stamped with the type and context ids the loader will hand out.  Equal
stores write equal files, and save → load → save reproduces the file.

Loading *adopts* the image: buffers come from the manager's own policy
(heap, shared memory, tiered), blocks are mapped at their stored ids, and
one vectorised pass per block rebuilds what the bytes only imply — valid
counts and allocation cursors from the slot directory, live counts, the
table's free list from its null entries.  A dictionary adopts its two
code arrays as they are and reads no text: texts stay in the heap records
until a write or a string lookup needs them (``StringDict``).  Entry ids
and incarnation counters carry over, so a reference that was stale before
the save is stale after the load.  Reclamation queues start empty and the epoch
restarts at zero.  An image is only ever adopted: its header sets the
block size and pointer mode, its collections keep the layout they were
saved in, and the blocks keep their holes.

Every section carries its length and CRC32; truncation, a flipped byte,
an unknown section kind or two blocks claiming one id raise
:class:`SnapshotError` naming the section.

Files of the retired field-by-field row format are refused by name.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from typing import Any, BinaryIO, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.collection import Collection
from repro.core.columnar import ColumnarCollection
from repro.errors import SmcError
from repro.memory import slots as slotcodec
from repro.memory.addressing import NULL_ADDRESS
from repro.memory.block import _HEADER_STRUCT
from repro.memory.indirection import INC_MASK
from repro.memory.manager import MemoryManager
from repro.schema.fields import CharField, DecimalField, Field
from repro.schema.tabular import resolve_tabular

_MAGIC = b"SMCSNAP2"
_HEADER_FRAME = struct.Struct("<II")  # length, crc32
_FRAME = struct.Struct("<4sIqQI4x")  # tag, kind, id, length, crc32
_FRAME_KEY = struct.Struct("<IqQ")  # the frame fields the CRC also covers
_FRAME_TAG = b"SECT"

# Kind 6 is retired: a reader refuses it like any unknown kind.
HEAP_BLOCK, HEAP_FREE, TABLE, DICT, BLOCK = range(1, 6)
END = 7
_KIND_NAMES = {
    HEAP_BLOCK: "heap-block",
    HEAP_FREE: "heap-free",
    TABLE: "table",
    DICT: "dict",
    BLOCK: "block",
    END: "end",
}

#: What a malformed-but-checksummed image can still trip over while being
#: adopted (a schema that drifted, a writer bug); reported as SnapshotError.
_ADOPT_ERRORS = (ValueError, KeyError, IndexError, TypeError, OverflowError, struct.error)


class SnapshotError(SmcError):
    """Raised on malformed or incompatible snapshot files."""


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise SnapshotError(f"truncated {what}")
    return data


def _field_meta(field: Field) -> int:
    if isinstance(field, CharField):
        return field.width
    if isinstance(field, DecimalField):
        return field.scale
    return -1


def _field_spec(layout) -> List[List[Any]]:
    return [[f.name, type(f).__name__, _field_meta(f)] for f in layout.fields]


def _named(collections: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in collections.items() if not k.startswith("_")}


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------


def save_collections(
    path: str,
    collections: Dict[str, Any],
    *,
    fsync: bool = False,
) -> int:
    """Write *collections* (name → collection) to *path* as block images.

    Returns the number of rows the image holds.  All collections must
    share one memory manager, and reference fields may only point at
    objects inside one of the saved collections.  The caller keeps
    writers of the saved collections out for the duration (the
    checkpointer holds the WAL lock); blocks are written from whatever
    buffer they currently live in, so cold blocks are never promoted.
    With ``fsync`` the file is fsynced before closing (checkpoints need
    the bytes durable before the manifest rename can point at them).
    """
    named = _named(collections)
    manager = collections.get("_manager")
    for coll in named.values():
        if manager is None:
            manager = coll.manager
        elif coll.manager is not manager:
            raise SnapshotError(
                "collections of different memory managers cannot share a snapshot"
            )
    if manager is None:
        raise SnapshotError("nothing to save: no collection and no '_manager'")

    # The critical section keeps a compaction of some *other* collection
    # from starting its moving phase (and from advancing the epoch twice,
    # which a demotion would need) while buffers are being copied out.
    with manager.critical_section():
        blocks = {name: _settled_blocks(name, coll) for name, coll in named.items()}
        table_addr, table_inc = manager.table.export()
        saved_ids = {b.block_id for group in blocks.values() for b in group}
        if len(named) < len(manager._contexts):
            _check_references(manager, named, blocks, saved_ids, table_addr, table_inc)
        # An entry is live iff a valid slot of a saved block points back at
        # it; all others (retired and not yet recycled, or owned by a
        # collection that is not being saved) go into the image as null.
        live = np.zeros(len(table_addr), dtype=bool)
        live[_entries(blocks.values())] = True
        table_addr[~live] = NULL_ADDRESS
        table_inc &= np.uint32(INC_MASK)
        dicts: Dict[str, Any] = {}
        for coll in named.values():
            if coll.strdict is not None:
                dicts.setdefault(coll.schema.__name__, coll.strdict)
        heap = manager.strings
        heap_blocks = heap.blocks()
        header = {
            "block_shift": manager.space.block_shift,
            # Varstrings are dictionary codes; the key stays so images
            # keep their bytes, and a reader refuses any other value.
            "string_dict": True,
            "direct_pointers": bool(manager.direct_pointers),
            "align": mmap.ALLOCATIONGRANULARITY,
            "collections": [
                {
                    "name": name,
                    "schema": coll.schema.__name__,
                    "fields": _field_spec(coll.layout),
                    "columnar": isinstance(coll, ColumnarCollection),
                    "dict_fields": sorted(coll.context.dict_fields),
                    "blocks": [b.block_id for b in blocks[name]],
                    "rows": len(coll),
                }
                for name, coll in named.items()
            ],
            "heap": {
                "blocks": [[b.block_id, b.bump] for b in heap_blocks],
                "bytes_in_use": heap.bytes_in_use,
            },
            "dicts": list(dicts),
        }
        with open(path, "wb") as fh:
            out = _SectionWriter(fh, header)
            for block in heap_blocks:
                out.section(HEAP_BLOCK, block.block_id, block.buf)
            free = np.array(heap.free_records(), dtype=np.int64).reshape(-1, 2)
            out.section(HEAP_FREE, len(free), free)
            out.section(TABLE, len(table_addr), table_addr, table_inc)
            for index, strdict in enumerate(dicts.values()):
                out.section(DICT, index, *strdict.export_codes())
            type_ids: Dict[str, int] = {}
            for context_id, (name, coll) in enumerate(named.items()):
                type_id = type_ids.setdefault(coll.schema.__name__, len(type_ids) + 1)
                for block in blocks[name]:
                    out.section(
                        BLOCK, block.block_id, _image(block, type_id, context_id)
                    )
            out.section(END, out.sections)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
    return sum(len(coll) for coll in named.values())


class _SectionWriter:
    """Magic, header, then framed sections whose payloads start aligned."""

    def __init__(self, fh: BinaryIO, header: Dict[str, Any]) -> None:
        self.fh = fh
        self.align = header["align"]
        self.sections = 0
        data = json.dumps(header, separators=(",", ":")).encode("utf-8")
        fh.write(_MAGIC)
        fh.write(_HEADER_FRAME.pack(len(data), zlib.crc32(data)))
        fh.write(data)
        self.pos = len(_MAGIC) + _HEADER_FRAME.size + len(data)

    def section(self, kind: int, ident: int, *parts) -> None:
        # (An empty array has a zero in its shape, which cast() refuses.)
        views = [
            view.cast("B") if view.nbytes else memoryview(b"")
            for view in map(memoryview, parts)
        ]
        length = sum(view.nbytes for view in views)
        crc = zlib.crc32(_FRAME_KEY.pack(kind, ident, length))
        for view in views:
            crc = zlib.crc32(view, crc)
        pad = -(self.pos + _FRAME.size) % self.align
        self.fh.write(bytes(pad))
        self.fh.write(_FRAME.pack(_FRAME_TAG, kind, ident, length, crc))
        for view in views:
            self.fh.write(view)
        self.pos += pad + _FRAME.size + length
        self.sections += 1


def _settled_blocks(name: str, coll) -> list:
    """*coll*'s blocks in enumeration order, refusing a half-moved state.

    Between compaction cycles every live object is VALID in exactly one
    block of its context (a failed group's moved rows in the attached
    destination, the rest in the sources), so the raw blocks are the
    collection.  Mid-cycle that is not true at every instant; durable
    collections compact under the WAL lock the checkpointer holds, so
    only an unsynchronised caller can get here.
    """
    blocks = coll.context.blocks()
    for block in blocks:
        group = block.compaction_group
        if group is not None and not (group.finished or group.failed):
            raise SnapshotError(
                f"collection {name!r} is being compacted; snapshot it "
                f"after the cycle settles"
            )
    return blocks


def _image(block, type_id: int, context_id: int):
    """*block*'s bytes as an image stores them.

    Usually the live buffer itself.  A copy is patched when the block
    carries state that means nothing to another process: LIMBO words
    (their removal epochs end with this process; the slots are FREE to
    whoever adopts the image) and header ids other than the ones the
    loader will assign — collections are created in file order, so a
    context id is a position and a type id a first appearance.  Equal
    stores therefore write equal files, and an adopted image never needs
    a write before it can be read.
    """
    stamp = _HEADER_STRUCT.unpack_from(block.buf, 0)
    wanted = (type_id, context_id, *stamp[2:])
    limbo = (block.directory & slotcodec.STATE_MASK) == slotcodec.LIMBO
    if stamp == wanted and not limbo.any():
        return block.buf
    image = bytearray(block.buf)
    _HEADER_STRUCT.pack_into(image, 0, *wanted)
    directory = np.frombuffer(
        image, np.uint32, block.slot_count, block.directory_offset
    )
    directory[limbo] = slotcodec.pack(slotcodec.FREE)
    return image


def _entries(groups) -> np.ndarray:
    """Entry ids of the rows in *groups* of blocks, in enumeration order."""
    parts = [np.empty(0, dtype=np.int64)]
    for group in groups:
        parts.extend(block.backptrs[block.valid_slots()] for block in group)
    return np.concatenate(parts)


def _check_references(manager, named, blocks, saved_ids, table_addr, table_inc) -> None:
    """Refuse live references that leave the saved collections.

    Only needed when the manager hosts collections that are not being
    saved: the image would hold pointers to blocks it does not carry.
    """
    shift = manager.space.block_shift
    direct = manager.direct_pointers
    saved = np.fromiter(saved_ids, dtype=np.int64, count=len(saved_ids))
    for name, coll in named.items():
        for field in coll.layout.ref_fields:
            for block in blocks[name]:
                words = block.column(field.name + "__w")
                incs = block.column(field.name + "__i")
                slots = block.valid_slots()
                words, incs = words[slots], incs[slots].astype(np.int64) & INC_MASK
                keep = words != NULL_ADDRESS
                words, incs = words[keep], incs[keep]
                if direct:
                    leaving = np.nonzero(~np.isin(words >> shift, saved))[0]
                    # A stale direct pointer may name a block long gone;
                    # only a target whose slot header still matches is live.
                    leaving = [
                        k
                        for k in leaving
                        if _direct_target_alive(manager, int(words[k]), int(incs[k]))
                    ]
                else:
                    alive = (table_inc[words].astype(np.int64) & INC_MASK) == incs
                    leaving = np.nonzero(
                        alive & ~np.isin(table_addr[words] >> shift, saved)
                    )[0]
                if len(leaving):
                    raise SnapshotError(
                        f"reference field {field.name} of {name!r} points "
                        f"outside the snapshotted collections"
                    )


def _direct_target_alive(manager, address: int, inc: int) -> bool:
    block = manager.space.try_block_at(address)
    if not hasattr(block, "slot_incs"):
        return False
    slot = block.slot_of_address(address)
    return (
        0 <= slot < block.slot_count
        and (int(block.slot_incs[slot]) & INC_MASK) == inc
    )


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def load_collections(
    path: str,
    *,
    shm: bool = False,
    memory_budget: Optional[int] = None,
) -> Dict[str, Any]:
    """Adopt a snapshot; returns name → collection (plus ``"_manager"``).

    Tabular classes are resolved by name through the schema registry and
    validated against the stored field specification.  The image's
    header sets the fresh manager's block size and pointer mode; ``shm``
    (shared-memory block buffers, for the process executor) and
    ``memory_budget`` (attach a pager keeping the block pool under a byte
    budget) choose where its buffers live.
    """
    # Tabular classes are resolved by name: user-defined classes must be
    # imported before loading.  The built-in TPC-H schema registers here
    # so snapshots written by the CLI always reload.
    import repro.tpch.schema  # noqa: F401

    with open(path, "rb") as fh:
        header = _open_image(fh, path)
        manager = MemoryManager(
            block_shift=header["block_shift"],
            direct_pointers=header["direct_pointers"],
            shm=shm,
            memory_budget=memory_budget,
        )
        try:
            return _adopt_sections(fh, header, manager)
        except BaseException:
            manager.close()
            raise


def _open_image(fh: BinaryIO, path: str) -> Dict[str, Any]:
    """Check the magic of the file open in *fh*; returns its header."""
    magic = fh.read(len(_MAGIC))
    if magic == b"SMCSNAP1":
        raise SnapshotError(
            f"{path}: SMCSNAP1 row snapshots are no longer read; load and "
            f"save it with an older release to turn it into a block image"
        )
    if magic != _MAGIC:
        raise SnapshotError(f"{path} is not an SMC snapshot")
    return _read_header(fh)


def _read_header(fh: BinaryIO) -> Dict[str, Any]:
    length, crc = _HEADER_FRAME.unpack(_read_exact(fh, _HEADER_FRAME.size, "header"))
    data = _read_exact(fh, length, "header")
    if zlib.crc32(data) != crc:
        raise SnapshotError("header checksum mismatch")
    try:
        header = json.loads(data)
        for key in ("block_shift", "string_dict", "direct_pointers", "align",
                    "collections", "heap", "dicts"):
            header[key]
    except _ADOPT_ERRORS as exc:
        raise SnapshotError(f"malformed header: {exc}") from None
    if header["string_dict"] is not True:
        raise SnapshotError(
            "the image stores varstrings as plain string-heap addresses "
            "(header string_dict: false); only dictionary-coded string "
            "encoding is read"
        )
    header["offset"] = len(_MAGIC) + _HEADER_FRAME.size + length
    header["file_bytes"] = os.fstat(fh.fileno()).st_size
    return header


class _Frame(NamedTuple):
    kind: int
    ident: int
    length: int
    crc: int

    @property
    def name(self) -> str:
        return f"{_KIND_NAMES[self.kind]} section {self.ident}"


def _read_frame(fh: BinaryIO, pos: int, header: Dict[str, Any]) -> Tuple[_Frame, int]:
    """Skip to the next frame; returns it and its payload's position."""
    pad = -(pos + _FRAME.size) % header["align"]
    raw = _read_exact(fh, pad + _FRAME.size, "snapshot file (no end section)")
    tag, kind, ident, length, crc = _FRAME.unpack(raw[pad:])
    pos += pad
    if tag != _FRAME_TAG:
        raise SnapshotError(f"no section frame at offset {pos}")
    if kind not in _KIND_NAMES:
        raise SnapshotError(f"unknown section kind {kind} at offset {pos}")
    frame = _Frame(kind, ident, length, crc)
    if pos + _FRAME.size + length > header["file_bytes"]:
        raise SnapshotError(f"truncated {frame.name}")
    return frame, pos + _FRAME.size


def _sections(fh: BinaryIO, header: Dict[str, Any]):
    """Yield ``(frame, payload position)`` per section up to and including
    the end section, with *fh* at the payload; unread payloads are skipped."""
    pos = header["offset"]
    while True:
        frame, pos = _read_frame(fh, pos, header)
        yield frame, pos
        if frame.kind == END:
            return
        pos += frame.length
        fh.seek(pos)


def _read_payload(fh: BinaryIO, frame: _Frame, into=None):
    """One section payload, checksummed; *into* receives it in place."""
    if into is None:
        into = bytearray(frame.length)
    view = memoryview(into).cast("B")
    if view.nbytes != frame.length:
        raise SnapshotError(
            f"{frame.name} holds {frame.length} bytes, expected {view.nbytes}"
        )
    if fh.readinto(view) != frame.length:
        raise SnapshotError(f"truncated {frame.name}")
    seed = zlib.crc32(_FRAME_KEY.pack(frame.kind, frame.ident, frame.length))
    if zlib.crc32(view, seed) != frame.crc:
        raise SnapshotError(f"{frame.name} checksum mismatch")
    return into


def _resolve_schema(name: str, fields: List[List[Any]]):
    """The registered tabular class *name*, checked against stored *fields*."""
    schema = resolve_tabular(name)
    expected = _field_spec(schema.__layout__)
    if fields != expected:
        raise SnapshotError(
            f"snapshot schema for {name} does not match the "
            f"current tabular class: {fields} != {expected}"
        )
    return schema


def _validated_collection(spec: Dict[str, Any], manager: MemoryManager):
    schema = _resolve_schema(spec["schema"], spec["fields"])
    factory = ColumnarCollection if spec["columnar"] else Collection
    coll = factory(schema, manager=manager, name=spec["name"])
    if sorted(coll.context.dict_fields) != spec["dict_fields"]:
        raise SnapshotError(
            f"collection {spec['name']!r} stores dictionary codes for "
            f"{spec['dict_fields']}, the manager for "
            f"{sorted(coll.context.dict_fields)}"
        )
    return coll


def _adopt_sections(fh: BinaryIO, header: Dict[str, Any], manager: MemoryManager):
    space = manager.space
    collections: Dict[str, Any] = {}
    owner: Dict[int, Any] = {}
    for spec in header["collections"]:
        coll = collections[spec["name"]] = _validated_collection(spec, manager)
        for block_id in spec["blocks"]:
            owner[block_id] = coll
    bumps = dict(header["heap"]["blocks"])
    dicts = {
        index: manager.collections[schema].strdict
        for index, schema in enumerate(header["dicts"])
    }
    # Sections still owed, by what they unlock: a dictionary's codes name
    # records of the heap blocks, a data block is checked against the table
    # (and the pager may build its zone map the moment it is adopted).
    table: Optional[Tuple[np.ndarray, np.ndarray]] = None
    heap_free_pending = True

    def adopt_heap_block(ident: int, segment) -> None:
        if ident not in bumps:
            raise ValueError("not a heap block of this image, or sent twice")
        manager.strings.adopt_block(ident, segment, bumps.pop(ident))

    def adopt_data_block(ident: int, segment) -> None:
        if ident not in owner:
            raise ValueError("not a block of any collection, or sent twice")
        if table is None or dicts:
            raise ValueError("data block ahead of the table or a dictionary")
        block = manager.adopt_block(owner.pop(ident).context, ident, segment)
        slots = block.valid_slots()
        entries = block.backptrs[slots]
        if entries.size and not 0 <= entries.min() <= entries.max() < len(table[0]):
            raise ValueError("back-pointer outside the indirection table")
        if not np.array_equal(table[0][entries], block.slot_address(slots)):
            raise ValueError("indirection entries do not point back at its slots")

    for sections, (frame, __) in enumerate(_sections(fh, header)):
        kind, ident = frame.kind, frame.ident
        try:
            if kind == END:
                if frame.length or ident != sections or fh.read(1):
                    raise ValueError(
                        f"closes {sections} sections, with payload or trailing data"
                    )
                break
            if kind in (HEAP_BLOCK, BLOCK):
                segment = space.buffers.create(space.block_size)
                try:
                    _read_payload(fh, frame, into=segment.buf)
                    (adopt_heap_block if kind == HEAP_BLOCK else adopt_data_block)(
                        ident, segment
                    )
                except BaseException:
                    segment.release()
                    raise
            else:
                # A dictionary keeps its payload as its two code arrays:
                # read it into an array buffer, not a bytearray.
                into = np.empty(frame.length, np.uint8) if kind == DICT else None
                payload = _read_payload(fh, frame, into)
                if kind == TABLE:
                    addr = np.frombuffer(payload, np.int64, ident)
                    inc = np.frombuffer(payload, np.uint32, ident, addr.nbytes)
                    if table is not None or addr.nbytes + inc.nbytes != frame.length:
                        raise ValueError("sent twice, or not one address and "
                                         "incarnation per entry")
                    table = (addr, inc)
                elif kind == DICT:
                    if bumps:
                        raise ValueError("dictionary ahead of a heap block")
                    codes = np.frombuffer(payload, np.int64).reshape(2, -1)
                    dicts.pop(ident).adopt_codes(codes[0], codes[1])
                elif kind == HEAP_FREE:
                    records = np.frombuffer(payload, np.int64).reshape(ident, 2)
                    manager.strings.adopt_free_records(
                        records.tolist(), header["heap"]["bytes_in_use"]
                    )
                    heap_free_pending = False
        except SnapshotError:
            raise
        except _ADOPT_ERRORS as exc:
            raise SnapshotError(f"{frame.name}: {exc}") from None
    missing = (
        [_Frame(BLOCK, b, 0, 0).name for b in owner]
        + [_Frame(HEAP_BLOCK, b, 0, 0).name for b in bumps]
        + [_Frame(DICT, i, 0, 0).name for i in dicts]
        + ["table section"] * (table is None)
        + ["heap-free section"] * heap_free_pending
    )
    if missing:
        raise SnapshotError(f"snapshot ends without its {', '.join(missing)}")
    for spec in header["collections"]:
        arrived = [b.block_id for b in collections[spec["name"]].context.blocks()]
        if arrived != spec["blocks"]:
            raise SnapshotError(
                f"blocks of collection {spec['name']!r} arrived out of order"
            )
    manager.table.adopt(*table)
    collections["_manager"] = manager
    return collections


def describe_snapshot(path: str) -> Dict[str, Any]:
    """What a snapshot file holds, from its header and section frames
    alone (no payload is read): format version, manager parameters,
    per-collection rows and block counts, bytes per section kind."""
    with open(path, "rb") as fh:
        header = _open_image(fh, path)
        sections: Dict[str, List[int]] = {}
        for frame, __ in _sections(fh, header):
            entry = sections.setdefault(_KIND_NAMES[frame.kind], [0, 0])
            entry[0] += 1
            entry[1] += frame.length
    return {
        "format": _MAGIC.decode(),
        "file_bytes": header["file_bytes"],
        "header_bytes": header["offset"],
        "block_shift": header["block_shift"],
        "direct_pointers": header["direct_pointers"],
        "collections": [
            {
                "name": c["name"],
                "schema": c["schema"],
                "columnar": c["columnar"],
                "rows": c["rows"],
                "blocks": len(c["blocks"]),
            }
            for c in header["collections"]
        ],
        "sections": {name: tuple(v) for name, v in sections.items()},
    }
