"""Processes, threads and OpenBLAS's thread count, in one place.

The rule: one BLAS thread wherever crossclust forks.  A training stage and
``data.label_csv`` of a file of at least two parse parts run numpy's
OpenBLAS on one thread (:func:`one_blas_thread`) wherever its count can be
set, whatever the CPU count: OpenBLAS rounds some shapes differently on one
thread and on several, and the bits must not depend on the host.  Only while
that pin holds and at least 2 CPUs are usable (:func:`usable_cpus`) does a
stage fork its producer and start its helper (:func:`helper_thread`), or
``label_csv`` fork parse parts.  ``predict`` keeps the caller's count.

:func:`fork_writer` refuses while a second Python thread is alive, since a
lock that thread holds would stay held in the child; its callers then take
their in-process path, with the same bits.
"""

from __future__ import annotations

import contextlib
import os
import queue
import signal
import sys
import threading
import warnings

from .numerics import openblas


def usable_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where no writer process is forked."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread and restore its
    count on exit.  Yields whether the count could be set; where it cannot,
    nothing is changed."""
    blas = openblas()
    if blas is None:
        yield False
        return
    threads = blas.get_threads()
    try:
        blas.set_threads(1)
        yield True
    finally:
        blas.set_threads(threads)


def fork_writer(write, *args) -> tuple[int, int]:
    """Fork a process that runs ``write(fd, *args)`` on the write end of a pipe.

    Returns its pid and the pipe's read end; release both with :func:`reap`.
    The child leaves by ``os._exit`` with ``write``'s return value as its
    status (1 if it raises), so it runs none of the parent's cleanup.
    Raises :class:`OSError`, and forks nothing, while a second Python thread
    is alive.
    """
    if threading.active_count() > 1:
        raise OSError("a second Python thread is alive: no process is forked")
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks; the only
            # other threads here are OpenBLAS's, and a child that calls BLAS
            # runs it on the one thread its parent set before the fork.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                status = write(write_fd, *args)
            finally:
                os._exit(status)
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    return pid, read_fd


def read_exact(fd: int, buf) -> None:
    """Fill the writable buffer ``buf`` from ``fd``; EOFError if the writer quits first."""
    view = memoryview(buf).cast("B")
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            raise EOFError("writer process ended early")
        view = view[got:]


def reap(children: list) -> None:
    """Close the pipe of each ``(pid, read end)`` in ``children``, SIGKILL the
    process and wait for it; ``children`` is left empty.  A writer that sent
    its whole message has exited or is about to; any other is not needed."""
    while children:
        pid, fd = children.pop()
        os.close(fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


@contextlib.contextmanager
def helper_thread():
    """Start one helper thread and yield ``split(first, second)``: it runs
    ``second`` on the helper while the calling thread runs ``first``, and
    returns ``(first(), second())`` once both have ended.  An exception
    raised by either reaches the caller unchanged (``first``'s if both
    raise).  The helper is joined on exit.  Yields None, for the serial
    path, when no thread can be started."""
    tasks, results = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        while (task := tasks.get()) is not None:
            try:
                outcome = task(), None
            except BaseException as exc:
                outcome = None, exc
            del task  # it may hold the step's 2N x 2N buffer
            results.put(outcome)

    def split(first, second):
        tasks.put(second)
        try:
            value = first()
        finally:
            other, error = results.get()
        if error is not None:
            raise error
        return value, other

    # a daemon, so that a helper a fault left running cannot block exit
    thread = threading.Thread(target=serve, name="crossclust-stage-helper", daemon=True)
    try:
        thread.start()
    except RuntimeError:  # no thread to spare
        yield None
        return
    try:
        yield split
    finally:
        tasks.put(None)
        thread.join()
