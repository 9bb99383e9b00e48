"""A map over independent items, shared among forked children.

:func:`_fork_map` deals the items to one share per CPU of the process's
affinity mask, most expensive first.  The parent runs one share, a forked
child runs each other share and sends its results back over a pipe as
marshal bytes, so every result is the same value the parent would have
computed.

The counting module imports this module on its first level solve, the
asymptotics module on its first rho_h solve, and the oracle module on
every enumeration, which it splits into one part per CPU, so constants
and the residual check do not load it.  It uses
``os.fork`` rather than a process pool: a WeightFamily holds closures and
cannot be pickled, and importing ``multiprocessing`` and
``concurrent.futures.process`` after ``protek.cli`` added about 1.6 MiB of
peak memory on Python 3.11, while ``marshal`` and ``os`` are loaded at
start-up.
"""

import marshal
import os
import threading

# Total estimated cost below which every item runs in the calling process.
# For the level solves of the counting module, on a 2-CPU x86-64 Linux
# machine (Python 3.11), one unit took about 100 ns of plane and 250 ns of
# cayley solving, and a fork round trip about 3 ms, so the floor is 10 to
# 25 ms of serial work.  The oracle and the rho_h solves price their work
# in the same unit.
_SPLIT_WORK_FLOOR = 100_000


def _cpus() -> int:
    """Number of CPUs the process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal(work: dict, shares: int) -> list:
    """The items of ``work`` (item -> cost), most expensive first, each
    added to the least-loaded of ``shares`` lists."""
    loads = [[0, i, []] for i in range(shares)]
    for item in sorted(work, key=work.__getitem__, reverse=True):
        least = min(loads)
        least[0] += work[item]
        least[2].append(item)
    return [items for _, _, items in loads]


def _fork_map(fn, work: dict) -> dict:
    """{item: fn(item)} for every item of ``work`` (item -> estimated cost);
    every result must be marshal-able.

    The parent runs the first share and one forked child runs each other
    share.  Every item runs in the calling process when os.fork is missing,
    when fewer than two CPUs or items are at hand, when another thread is
    alive (a fork would copy its locks in whatever state they are), or when
    the total cost is below _SPLIT_WORK_FLOOR.  A share whose fork fails,
    and the share of a child that fails, run in the parent, so an error of
    ``fn`` reaches the caller typed.  Every child is reaped before this
    returns or raises, and killed first when the parent's own share raises.
    """
    shares = min(_cpus(), len(work))
    if (
        not hasattr(os, "fork")
        or shares < 2
        or threading.active_count() > 1
        or sum(work.values()) < _SPLIT_WORK_FLOOR
    ):
        return {item: fn(item) for item in work}
    mine, *theirs = _deal(work, shares)
    results = {}
    children = []  # (pid, read end, items)
    reaped = set()
    try:
        for items in theirs:
            try:
                children.append((*_fork_worker(fn, items), items))
            except OSError:  # no process to spare: run these items here
                mine += items
        for item in mine:
            results[item] = fn(item)
        for pid, fd, items in children:
            data = _read_to_eof(fd)
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if status:
                # the child failed: running its items here raises any error
                # in this process, typed
                results.update((item, fn(item)) for item in items)
            else:
                results.update(zip(items, marshal.loads(data)))
    finally:
        for pid, fd, _ in children:
            if pid not in reaped:
                import signal  # only a call that raises gets here

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)
    return results


def _fork_worker(fn, items: list) -> tuple:
    """Fork a child that maps ``fn`` over ``items`` (see _run_in_child);
    returns its pid and the read end of the pipe its results arrive on."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _run_in_child(fn, items, write_end)
    os.close(write_end)
    return pid, read_end


def _run_in_child(fn, items: list, fd: int):
    """Write the marshalled list of ``fn(item)`` for ``items`` to ``fd`` and
    exit 0; exit 1 when anything raises.

    The child always leaves through os._exit, so no stdio buffer copied
    from the parent is flushed and no exit handler runs.
    """
    code = 1
    try:
        data = memoryview(marshal.dumps([fn(item) for item in items]))
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
