"""Process-level runtime: everything runs on one thread.

A thread pool cannot speed up work that runs as Python bytecode under the
interpreter lock.  The tracer of ``perfbench`` wraps ``ordered_map`` and
calls ``thread_cap``, which is why both stay.
"""


def thread_cap() -> int:
    return 1


def ordered_map(fn, items) -> list:
    return [fn(item) for item in items]
