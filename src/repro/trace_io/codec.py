"""Event and kernel-table codecs for the trace layer.

Encoding turns a runtime :class:`~repro.gpu.runtime.ApiEvent` (observed
at ``on_api_end``, effects applied) into a ``(kind, meta, arrays)``
frame for :class:`~repro.trace_io.format.TraceWriter`.  Everything a
downstream :class:`~repro.gpu.runtime.RuntimeListener` can observe is
captured:

- allocation identity (id, address, size, dtype, label) per event;
- host-array contents crossing PCIe (post-effect);
- per-launch access records, touched-object summaries, kernel stats,
  shared-memory ranges, and the **full post-launch contents of every
  written allocation** — replay restores device state by writing those
  bytes back instead of re-executing the kernel, so snapshots taken
  over a replay are byte-identical to the live run;
- the kernel table (code bases, line maps, SASS-like binaries) in the
  footer, so offline access-type slicing works without importing any
  workload code.

Decoding of full events lives in :mod:`repro.trace_io.replayer`, which
owns the replay-side allocation state; this module only decodes the
stateless pieces (call paths, dtypes, kernels).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.binary.isa import Instruction, Opcode, Register
from repro.binary.module import GpuFunction
from repro.errors import TraceError
from repro.gpu.accesses import AccessKind, AccessRecord
from repro.gpu.dtypes import DType
from repro.gpu.kernel import Kernel
from repro.gpu.runtime import (
    ApiEvent,
    FreeEvent,
    KernelLaunchEvent,
    MallocEvent,
    MemcpyEvent,
    MemsetEvent,
)
from repro.trace_io.format import (
    EVENT_FREE,
    EVENT_LAUNCH,
    EVENT_MALLOC,
    EVENT_MEMCPY,
    EVENT_MEMSET,
    ArrayDict,
)
from repro.utils.callpath import CallPath, Frame

# -- stateless pieces --------------------------------------------------------


def encode_call_path(call_path: Optional[CallPath]) -> Optional[List]:
    """Call path as ``[[function, filename, lineno], ...]`` or None."""
    if call_path is None:
        return None
    return [[f.function, f.filename, f.lineno] for f in call_path.frames]


def decode_call_path(data: Optional[List]) -> Optional[CallPath]:
    """Inverse of :func:`encode_call_path`."""
    if data is None:
        return None
    return CallPath(
        tuple(Frame(function, filename, lineno) for function, filename, lineno in data)
    )


def dtype_name(dtype: Optional[DType]) -> Optional[str]:
    """A DType's stable wire name (its enum value), or None."""
    return None if dtype is None else dtype.value


def dtype_from_name(name: Optional[str]) -> Optional[DType]:
    """Inverse of :func:`dtype_name`."""
    return None if name is None else DType(name)


def alloc_descriptor(alloc) -> dict:
    """Identity of an allocation as seen on the event bus."""
    return {
        "alloc_id": int(alloc.alloc_id),
        "address": int(alloc.address),
        "size": int(alloc.size),
        "dtype": dtype_name(alloc.dtype),
        "label": alloc.label,
        "freed": bool(alloc.freed),
        "device": int(alloc.device),
    }


def _common_meta(event: ApiEvent) -> dict:
    return {
        "seq": int(event.seq),
        "time_s": float(event.time_s),
        "annotation": list(event.annotation),
        "stream": int(event.stream),
        "device": int(event.device),
        "call_path": encode_call_path(event.call_path),
    }


# -- event encoding -----------------------------------------------------------


def encode_event(event: ApiEvent) -> Tuple[int, dict, ArrayDict]:
    """Encode one post-effect API event as a trace frame."""
    meta = _common_meta(event)
    arrays: ArrayDict = {}
    if isinstance(event, MallocEvent):
        meta["alloc"] = alloc_descriptor(event.alloc)
        return EVENT_MALLOC, meta, arrays
    if isinstance(event, FreeEvent):
        meta["alloc"] = alloc_descriptor(event.alloc)
        return EVENT_FREE, meta, arrays
    if isinstance(event, MemcpyEvent):
        meta["kind"] = event.kind.value
        meta["nbytes"] = int(event.nbytes)
        meta["dst"] = (
            alloc_descriptor(event.dst_alloc) if event.dst_alloc is not None else None
        )
        meta["src"] = (
            alloc_descriptor(event.src_alloc) if event.src_alloc is not None else None
        )
        if event.host_array is not None:
            meta["host_label"] = event.host_array.label
            arrays["host"] = np.array(event.host_array.data, copy=True)
        return EVENT_MEMCPY, meta, arrays
    if isinstance(event, MemsetEvent):
        meta["alloc"] = alloc_descriptor(event.alloc)
        meta["byte_value"] = int(event.byte_value)
        meta["nbytes"] = int(event.nbytes)
        return EVENT_MEMSET, meta, arrays
    if isinstance(event, KernelLaunchEvent):
        _encode_launch(event, meta, arrays)
        return EVENT_LAUNCH, meta, arrays
    raise TraceError(f"cannot encode event type {type(event).__name__}")


def _encode_launch(event: KernelLaunchEvent, meta: dict, arrays: ArrayDict) -> None:
    meta["kernel"] = event.kernel.name
    meta["grid"] = int(event.grid)
    meta["block"] = int(event.block)
    meta["instrumented"] = bool(event.instrumented)
    meta["shared_ranges"] = [
        [int(start), int(end), dtype_name(dtype)]
        for start, end, dtype in event.shared_ranges
    ]
    if event.sampled_blocks is not None:
        arrays["sampled"] = np.asarray(event.sampled_blocks, dtype=bool)
    stats = event.stats
    meta["stats"] = (
        None
        if stats is None
        else {
            "threads": int(stats.threads),
            "loads": int(stats.loads),
            "stores": int(stats.stores),
            "bytes_loaded": int(stats.bytes_loaded),
            "bytes_stored": int(stats.bytes_stored),
            "fp32_ops": float(stats.fp32_ops),
            "fp64_ops": float(stats.fp64_ops),
            "int_ops": float(stats.int_ops),
        }
    )
    meta["touched"] = [
        {
            "alloc": alloc_descriptor(alloc),
            "nread": int(nread),
            "nwritten": int(nwritten),
        }
        for alloc, nread, nwritten in event.touched
    ]
    records_meta = []
    for index, record in enumerate(event.records):
        records_meta.append(
            {
                "pc": int(record.pc),
                "kind": record.kind.value,
                "dtype": dtype_name(record.dtype),
                "kernel_name": record.kernel_name,
            }
        )
        arrays[f"r{index}.addr"] = np.asarray(record.addresses, dtype=np.uint64)
        arrays[f"r{index}.val"] = np.asarray(record.values)
        arrays[f"r{index}.tid"] = np.asarray(record.thread_ids, dtype=np.int64)
        arrays[f"r{index}.blk"] = np.asarray(record.block_ids, dtype=np.int64)
    meta["records"] = records_meta
    # Post-launch device state of every written (still-live) allocation:
    # replay restores state by writing these back, no kernel execution.
    post = []
    for alloc, _nread, nwritten in event.touched:
        if nwritten <= 0 or alloc.freed:
            continue
        post.append(
            {"alloc_id": int(alloc.alloc_id), "address": int(alloc.address)}
        )
        arrays[f"p{len(post) - 1}"] = alloc.read_all()
    meta["post"] = post


def delta_keys_for(kind: int, meta: dict) -> Dict[str, str]:
    """Delta keys for a frame's arrays, by array name.

    Post-launch snapshots (``p<N>`` arrays) of the same allocation
    repeat with few changed bytes launch to launch, so they are keyed
    by allocation identity: a v2 writer XOR-encodes each against the
    previous snapshot of that allocation (see
    :meth:`~repro.trace_io.format.TraceWriter.write_event`).
    """
    if kind != EVENT_LAUNCH:
        return {}
    return {
        f"p{index}": f"post:{entry['alloc_id']}:{entry['address']}"
        for index, entry in enumerate(meta.get("post", ()))
    }


def released_delta_keys(kind: int, meta: dict) -> List[str]:
    """Delta keys a frame retires (freed allocations snapshot no more)."""
    if kind != EVENT_FREE:
        return []
    alloc = meta["alloc"]
    return [f"post:{alloc['alloc_id']}:{alloc['address']}"]


def decode_access_record(record_meta: dict, arrays: ArrayDict, index: int) -> AccessRecord:
    """Rebuild one access record from its frame slice.

    The four per-thread vectors must be parallel; a torn record, whose
    lengths disagree, raises :class:`TraceError`.
    """
    addresses = arrays[f"r{index}.addr"]
    values = arrays[f"r{index}.val"]
    thread_ids = arrays[f"r{index}.tid"]
    block_ids = arrays[f"r{index}.blk"]
    lengths = (len(addresses), len(values), len(thread_ids), len(block_ids))
    if len(set(lengths)) != 1:
        raise TraceError(
            f"access record {index} is torn: addresses, values, thread ids "
            f"and block ids have lengths {lengths}"
        )
    return AccessRecord(
        pc=record_meta["pc"],
        kind=AccessKind(record_meta["kind"]),
        addresses=addresses,
        values=values,
        dtype=dtype_from_name(record_meta["dtype"]),
        kernel_name=record_meta["kernel_name"],
        thread_ids=thread_ids,
        block_ids=block_ids,
    )


# -- kernel table -------------------------------------------------------------


def encode_kernel(kernel: Kernel) -> dict:
    """Kernel metadata for the trace footer (no entry function)."""
    return {
        "name": kernel.name,
        "code_base": int(kernel.code_base),
        "line_map": [
            [int(pc), filename, int(lineno)]
            for pc, (filename, lineno) in sorted(kernel.line_map.items())
        ],
        "binary": (
            None if kernel.binary is None else encode_function(kernel.binary)
        ),
    }


def encode_function(function: GpuFunction) -> dict:
    """A SASS-like binary function, instruction by instruction."""
    return {
        "name": function.name,
        "line_map": [
            [int(pc), filename, int(lineno)]
            for pc, (filename, lineno) in sorted(function.line_map.items())
        ],
        "instructions": [
            {
                "pc": int(instr.pc),
                "opcode": instr.opcode.value,
                "dests": [r.index for r in instr.dests],
                "srcs": [r.index for r in instr.srcs],
                "width_bits": instr.width_bits,
                "src_type": dtype_name(instr.src_type),
                "dst_type": dtype_name(instr.dst_type),
                "addr": None if instr.addr is None else instr.addr.index,
                "pred": None if instr.pred is None else instr.pred.index,
                "target": instr.target,
            }
            for instr in function.instructions
        ],
    }


def _stub_entry(*_args, **_kwargs) -> None:
    raise TraceError(
        "replayed kernels carry no entry function; launches are "
        "reconstructed from recorded access records and post-state"
    )


def decode_kernel(data: dict) -> Kernel:
    """Rebuild a kernel stub: metadata and binary, no executable body."""
    line_map: Dict[int, Tuple[str, int]] = {
        pc: (filename, lineno) for pc, filename, lineno in data["line_map"]
    }
    kernel = Kernel(
        name=data["name"],
        fn=_stub_entry,
        code_base=data["code_base"],
        line_map=line_map,
    )
    kernel._pc_table = {site: pc for pc, site in line_map.items()}
    if data["binary"] is not None:
        kernel.binary = decode_function(data["binary"])
    return kernel


def _opt_register(index) -> "Register | None":
    """A register from an optional encoded index."""
    return None if index is None else Register(index)


def decode_function(data: dict) -> GpuFunction:
    """Inverse of :func:`encode_function`."""
    return GpuFunction(
        name=data["name"],
        instructions=[
            Instruction(
                pc=d["pc"],
                opcode=Opcode(d["opcode"]),
                dests=tuple(Register(i) for i in d["dests"]),
                srcs=tuple(Register(i) for i in d["srcs"]),
                width_bits=d["width_bits"],
                src_type=dtype_from_name(d["src_type"]),
                dst_type=dtype_from_name(d["dst_type"]),
                # .get(): traces recorded before the control-flow
                # extension lack these keys.
                addr=_opt_register(d.get("addr")),
                pred=_opt_register(d.get("pred")),
                target=d.get("target"),
            )
            for d in data["instructions"]
        ],
        line_map={
            pc: (filename, lineno) for pc, filename, lineno in data["line_map"]
        },
    )
