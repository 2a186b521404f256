"""Host pace: how fast the measured CPU runs at this moment.

The benchmark shares a virtual machine's CPUs with other tenants, and the
speed it gets from one CPU moves by a third within a minute. Query and
build times move with it, so the wall-clock times of two runs of the same
code differ by more than any change worth catching. The benchmark
therefore times a fixed piece of reference work between its own
operations and reports every time at one fixed pace (:data:`NOMINAL_S`
per reference piece), as ``time * NOMINAL_S / reference time``.

The reference runs in a child process of its own (``python3 -m
perfbench.pace``) on the engine's CPU, and only while the benchmark waits
for it, never while an engine call runs. The program under test does not
share an interpreter, a lock or a CPU slot with it, so it cannot change
its own scaling factor. The work is interpreter-bound, dict inserts,
sorting and integer arithmetic on data that fits the CPU's own caches,
because that is what the host's contention slows in the engine. A first
reference that added a random gather from a 32 MiB array also read how
much of the shared last-level cache other tenants left: between quiet
runs it moved by a third while the engine's query times held within 1 %.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time
from pathlib import Path

# seconds one reference piece takes at the reported pace (about its
# median between the benchmark's operations on one vCPU of a shared Xeon
# virtual machine, so reported times stay near wall-clock times there)
NOMINAL_S = 0.0014


def reference():
    """The fixed reference piece: a callable that runs it and returns its
    seconds. Its data is made once, here."""
    keys = [i * 7919 for i in range(3000)]  # ints: hashing is not seeded per process

    def piece() -> float:
        t0 = time.perf_counter()
        d = {}
        for i, k in enumerate(keys):
            d[k] = (i * 40503) & 0xFFFF
        sorted(d, key=d.get)
        s = 0
        for i in range(15_000):
            s += i * i
        return time.perf_counter() - t0

    return piece


class Pace:
    """The reference work in a child process. :meth:`sample` asks for one
    piece and returns its seconds as the child timed them."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.pace"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=Path(__file__).resolve().parent.parent,
        )
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> list[float]:
        """Time ``n`` pieces, keep them in :attr:`samples` and return them."""
        out = []
        for _ in range(n):
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            out.append(float(self._proc.stdout.readline()))
        self.samples.extend(out)
        return out

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._proc.stdin.close()  # end of input: the child exits
        try:
            self._proc.wait(30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    piece = reference()
    for _ in sys.stdin:
        sys.stdout.write(f"{piece()!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
