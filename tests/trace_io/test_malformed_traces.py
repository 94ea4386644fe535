"""Malformed recordings fail with :class:`TraceError`, never a raw
``KeyError``/``ValueError`` and never a silent partial replay.

Each test damages a real recording in one specific way: a trace that
was never closed, a frame whose meta lacks a key, an access record
whose per-thread vectors disagree in length.  Exceptions raised by the
replay listeners themselves are not trace damage and pass through
unchanged.
"""

import os
import struct

import numpy as np
import pytest

from repro import ToolConfig, ValueExpert
from repro.errors import TraceError
from repro.gpu.runtime import RuntimeListener
from repro.trace_io import TraceReader, TraceRecorder, TraceReplayer
from repro.trace_io.format import (
    EVENT_LAUNCH,
    EVENT_MALLOC,
    MAGIC,
    TraceWriter,
)
from tests.trace_io.test_record_replay import _session


def _record_session(tmp_path, rt, copy_kernel):
    """A closed recording of the shared session, every launch instrumented."""
    path = str(tmp_path / "session.vetrace")
    recorder = TraceRecorder(path, header={"workload": "t"}, instrument="all")
    recorder.attach(rt)
    _session(rt, copy_kernel)
    recorder.detach()
    recorder.close()
    return path


def _rewrite(path, out_path, mutate):
    """Copy a recording frame by frame, letting ``mutate(index, kind,
    meta, arrays)`` damage frames in place; returns the mutated frame
    indices."""
    touched = []
    with TraceReader(path) as reader:
        header, footer = reader.header, reader.footer
        with TraceWriter(out_path, header=header) as writer:
            for index, (kind, meta, arrays) in enumerate(reader.events()):
                if mutate(index, kind, meta, arrays):
                    touched.append(index)
                writer.write_event(kind, meta, arrays)
            writer.close(footer)
    return touched


def _first_of_kind(wanted):
    """A mutator hook that fires on the first frame of kind ``wanted``."""
    state = {"done": False}

    def pick(kind):
        if state["done"] or kind != wanted:
            return False
        state["done"] = True
        return True

    return pick


# -- never-closed recordings --------------------------------------------------


@pytest.fixture
def torn_trace(tmp_path, rt, copy_kernel):
    """A recording cut mid-write: footer offset zeroed, tail clipped."""
    path = _record_session(tmp_path, rt, copy_kernel)
    data = bytearray(open(path, "rb").read())
    offset_pos = len(MAGIC) + 4
    data[offset_pos:offset_pos + 8] = struct.pack("<Q", 0)
    torn = str(tmp_path / "torn.vetrace")
    with open(torn, "wb") as handle:
        handle.write(bytes(data[: len(data) * 2 // 3]))
    return torn


def test_plain_reader_rejects_torn_trace_with_offset(torn_trace):
    with pytest.raises(TraceError) as excinfo:
        TraceReader(torn_trace)
    assert "never closed" in str(excinfo.value)
    assert excinfo.value.last_good_offset is not None
    assert 0 < excinfo.value.last_good_offset <= os.path.getsize(torn_trace)


def test_default_replay_raises_on_torn_trace(torn_trace):
    with pytest.raises(TraceError):
        ValueExpert(ToolConfig()).profile_from_trace(torn_trace)


# -- frames whose meta does not decode ----------------------------------------


@pytest.mark.parametrize(
    "kind, key",
    [(EVENT_LAUNCH, "kernel"), (EVENT_MALLOC, "alloc")],
    ids=["launch", "malloc"],
)
def test_missing_meta_key_is_a_trace_error(
    tmp_path, rt, copy_kernel, kind, key
):
    path = _record_session(tmp_path, rt, copy_kernel)
    broken = str(tmp_path / "broken.vetrace")
    first = _first_of_kind(kind)

    def drop_key(index, frame_kind, meta, arrays):
        if first(frame_kind):
            del meta[key]
            return True
        return False

    [frame] = _rewrite(path, broken, drop_key)
    with pytest.raises(TraceError) as excinfo:
        ValueExpert(ToolConfig()).profile_from_trace(broken)
    message = str(excinfo.value)
    assert f"frame {frame}" in message
    assert broken in message
    assert repr(key) in message
    assert isinstance(excinfo.value.__cause__, KeyError)


def test_listener_errors_pass_through_unchanged(tmp_path, rt, copy_kernel):
    """A listener's own KeyError is not trace damage: no wrapping."""
    path = _record_session(tmp_path, rt, copy_kernel)

    class Faulty(RuntimeListener):
        def on_api_end(self, event):
            raise KeyError("listener bug")

    with TraceReplayer(path) as replayer:
        replayer.subscribe(Faulty())
        with pytest.raises(KeyError, match="listener bug"):
            replayer.replay()


# -- torn access records ------------------------------------------------------


@pytest.mark.parametrize("vector", ["tid", "blk", "val"])
def test_torn_access_record_is_rejected(tmp_path, rt, copy_kernel, vector):
    path = _record_session(tmp_path, rt, copy_kernel)
    broken = str(tmp_path / "torn_record.vetrace")
    first = _first_of_kind(EVENT_LAUNCH)

    def clip(index, kind, meta, arrays):
        if first(kind):
            assert meta["records"], "the session's launch records accesses"
            name = f"r0.{vector}"
            arrays[name] = np.ascontiguousarray(arrays[name][:-1])
            return True
        return False

    [frame] = _rewrite(path, broken, clip)
    with pytest.raises(TraceError, match=f"frame {frame} .*torn"):
        ValueExpert(ToolConfig()).profile_from_trace(broken)
