"""The level solves of one CDF or expectation, shared among forked children.

The levels h share nothing but Y, so :func:`_prefetch_y0` deals the
levels missing from the results store to one share per CPU of the
process's affinity mask.  The parent solves one share, a forked child
solves each other share and sends its Y_{h,0} columns back over a pipe as
marshal bytes, and the parent stores them under the key the counting
module reads, so every count is the same int as on the serial path.

The counting module imports this module on its first CDF or expectation,
so commands that never call them (oracle, rhoh, constants) do not load
it.  It uses ``os.fork`` rather than a process pool: a WeightFamily
holds closures and cannot be pickled, and importing ``multiprocessing``
and ``concurrent.futures.process`` after ``protek.cli`` added about
1.6 MiB of peak memory on Python 3.11, while ``marshal`` and ``os`` are
loaded at start-up.
"""

from __future__ import annotations

import marshal
import os
import threading
from typing import Iterable, List, NoReturn, Tuple

from . import counting
from .families import WeightFamily, _memo, _stored

# Estimated work (see _y0_work) below which the missing levels are solved in
# the calling process.  On a 2-CPU x86-64 Linux machine (Python 3.11) one
# unit took about 100 ns of plane and 250 ns of cayley solving, and a fork
# round trip about 3 ms, so the floor is 10 to 25 ms of serial work.
_SPLIT_WORK_FLOOR = 100_000


def _y0_work(h: int, order: int) -> int:
    """Estimated cost of the windowed Y_{h,0} solve through ``order``: the
    sum of the squared column lengths, each composer's convolution work."""
    return sum(last * last for last in counting._windows(h, order, True))


def _cpus() -> int:
    """Number of CPUs the process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal(work: dict, shares: int) -> List[list]:
    """The levels of ``work`` (level -> cost), most expensive first, each
    added to the least-loaded of ``shares`` lists."""
    loads = [[0, i, []] for i in range(shares)]
    for h in sorted(work, key=work.__getitem__, reverse=True):
        least = min(loads)
        least[0] += work[h]
        least[2].append(h)
    return [levels for _, _, levels in loads]


def _prefetch_y0(f: WeightFamily, hs: Iterable[int], order: int) -> None:
    """Store Y_{h,0} through ``order`` for every level h in ``hs`` that the
    store lacks, sharing the solves among the CPUs of the process.

    The parent solves the first share and one forked child solves each
    other share.  Nothing happens when os.fork is missing, when fewer than
    two CPUs or levels are at hand, when another thread is alive (a fork
    would copy its locks in whatever state they are), or when the levels'
    work is below _SPLIT_WORK_FLOOR; the caller then solves each level as
    it reads it.  Every child is reaped before this returns or raises, and
    killed first when the parent's own share raises.
    """
    work = {h: _y0_work(h, order) for h in hs if _stored(f, ("Y0", h), order) is None}
    shares = min(_cpus(), len(work))
    if (
        not hasattr(os, "fork")
        or shares < 2
        or threading.active_count() > 1
        or sum(work.values()) < _SPLIT_WORK_FLOOR
    ):
        return
    mine, *theirs = _deal(work, shares)
    children = []  # (pid, read end, levels)
    reaped = set()
    try:
        for levels in theirs:
            try:
                children.append((*_fork_solver(f, levels, order), levels))
            except OSError:  # no process to spare: solve these levels here
                mine += levels
        for h in mine:
            counting._y0_coefficients(f, h, order)
        for pid, fd, levels in children:
            data = _read_to_eof(fd)
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if status:
                # the child failed: solving its levels here raises any error
                # in this process, typed
                for h in levels:
                    counting._y0_coefficients(f, h, order)
            else:
                for h, column in zip(levels, marshal.loads(data)):
                    _memo(f, ("Y0", h), lambda column=column: column, order)
    finally:
        for pid, fd, _ in children:
            if pid not in reaped:
                import signal  # only a call that raises gets here

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)


def _fork_solver(f: WeightFamily, levels: List[int], order: int) -> Tuple[int, int]:
    """Fork a child that solves ``levels`` (see _solve_in_child); returns
    its pid and the read end of the pipe its columns arrive on."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _solve_in_child(f, levels, order, write_end)
    os.close(write_end)
    return pid, read_end


def _solve_in_child(f: WeightFamily, levels: List[int], order: int, fd: int) -> NoReturn:
    """Solve Y_{h,0} for ``levels``, write the marshalled list of columns to
    ``fd`` and exit 0; exit 1 when anything raises.

    The child writes nothing to the store and never forks.  It always
    leaves through os._exit, so no stdio buffer copied from the parent is
    flushed and no exit handler runs.
    """
    code = 1
    try:
        data = memoryview(
            marshal.dumps(
                [counting._solve_system_raw(f, h, order, y0_only=True)[0] for h in levels]
            )
        )
        while data:
            data = data[os.write(fd, data) :]
        code = 0
    finally:
        os._exit(code)


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)
