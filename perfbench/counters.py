"""User-space instructions retired by a process, from the Linux perf_event
interface (the figure ``perf stat -e instructions:u`` prints).

Wall time on a shared host moves with the load of other tenants; the
instructions a process retires depend only on the work it does.  The
counter follows the process and every thread and child it starts, counts
from its ``exec`` on, and leaves out the kernel, so that it needs no
privilege beyond ``perf_event_paranoid`` <= 2.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

#: perf_event_open(2) syscall numbers
_SYSCALL = {"x86_64": 298, "aarch64": 241}

_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
# perf_event_attr flag bits
_DISABLED, _INHERIT, _EXCLUDE_KERNEL, _EXCLUDE_HV, _ENABLE_ON_EXEC = 0, 1, 5, 6, 12


class _Attr(ctypes.Structure):
    """struct perf_event_attr, as far as PERF_ATTR_SIZE_VER5."""

    _fields_ = [
        ("type", ctypes.c_uint32), ("size", ctypes.c_uint32), ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64), ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64), ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32), ("bp_type", ctypes.c_uint32),
        ("config1", ctypes.c_uint64), ("config2", ctypes.c_uint64),
        ("branch_sample_type", ctypes.c_uint64), ("sample_regs_user", ctypes.c_uint64),
        ("sample_stack_user", ctypes.c_uint32), ("clockid", ctypes.c_int32),
        ("sample_regs_intr", ctypes.c_uint64), ("aux_watermark", ctypes.c_uint32),
        ("sample_max_stack", ctypes.c_uint16), ("reserved", ctypes.c_uint16),
    ]


_libc = ctypes.CDLL(None, use_errno=True)


class CounterUnavailable(RuntimeError):
    pass


def instructions_counter(pid: int) -> int:
    """A file descriptor counting the user-space instructions of ``pid``,
    its threads and its children, starting when ``pid`` next calls exec."""
    number = _SYSCALL.get(platform.machine())
    if number is None:
        raise CounterUnavailable(f"no perf_event_open syscall number for {platform.machine()}")
    attr = _Attr(type=_PERF_TYPE_HARDWARE, size=ctypes.sizeof(_Attr),
                 config=_PERF_COUNT_HW_INSTRUCTIONS)
    attr.flags = sum(1 << bit for bit in (_DISABLED, _INHERIT, _EXCLUDE_KERNEL, _EXCLUDE_HV,
                                          _ENABLE_ON_EXEC))
    fd = _libc.syscall(number, ctypes.byref(attr), pid, -1, -1, 0)
    if fd < 0:
        err = ctypes.get_errno()
        raise CounterUnavailable(f"perf_event_open for instructions: {os.strerror(err)} "
                                 "(needs a hardware PMU and perf_event_paranoid <= 2)")
    return fd


def read_and_close(fd: int) -> int:
    """The count of a counter whose process has exited."""
    try:
        return struct.unpack("q", os.read(fd, 8))[0]
    finally:
        os.close(fd)
