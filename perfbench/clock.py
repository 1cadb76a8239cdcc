"""Pass timing rescaled to a reference host speed.

The benchmark runs on shared hosts whose speed drifts: on the 2-core
host it was built on, other tenants slowed this program by up to 2x for
tens of seconds at a time. A fixed pure-Python calibration kernel is
timed between the chunks of a pass, and each chunk's wall time is
rescaled by how much slower or faster than ``CAL_REF_S`` the kernel ran
around it:

    chunk_s = wall_s * (CAL_REF_S / max(calibration before, calibration after)) ** CAL_EXPONENT

On a host running at reference speed the rescaled time equals wall time.
The kernel mixes what the simulator spends its time on: big-integer ring
arithmetic and dict work, which slow when a neighbour shares the core,
and reads scattered over 4 MiB, which slow when it shares the cache and
memory. It is the benchmark's own code, so a change to ringnet cannot
move it. Its buffer adds 4 MiB to every pass's peak RSS. The slower of
the two calibrations around a chunk gave steadier figures than their
mean. Raw wall times are kept beside the rescaled ones.

The kernel slows more than ringnet does when the host is contended:
timed side by side over a minute on that host, ringnet's greedy replay
and a small simulator run moved as the kernel's time to the power 0.64
to 0.81 (log-log slope). ``CAL_EXPONENT`` takes that into account.
Re-scaling the same ten runs per workload, it cut the quartile spread
of pass times from 6-8 % at exponent 1 to 3.5-7 %; ten fresh runs per
workload at 0.75 spread by 4.4-5.2 %.
"""

from __future__ import annotations

import time

# Time of one calibration kernel run at the reference speed.
CAL_REF_S = 0.0015
# How ringnet's time scales with the kernel's when host speed changes.
CAL_EXPONENT = 0.75
_MODULUS = 1 << 160


_MEMORY_BITS = 22
_memory = bytearray()


def _kernel(n: int = 1500) -> int:
    """Ring arithmetic and dict work, then random reads over 4 MiB.

    The reads miss the per-core caches, so the kernel also slows when a
    neighbour contends for the shared cache and memory, as the simulator
    does.
    """
    table: dict[int, int] = {}
    x = 0x123456789ABCDEF0123456789ABCDEF012345678
    acc = 0
    for i in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) % _MODULUS
        table[i & 1023] = x
        acc ^= (x - table.get((i * 7) & 1023, 0)) % _MODULUS
    memory, mask, j = _memory, (1 << _MEMORY_BITS) - 1, 1
    for _ in range(2 * n):
        j = (j * 1103515245 + 12345) & mask
        acc += memory[j]
    return acc


def calibration_s(runs: int = 2) -> float:
    """Fastest of a few kernel runs; the fastest one misses interrupts."""
    if not _memory:
        _memory.extend(bytes(range(256)) * (1 << (_MEMORY_BITS - 8)))
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class PassClock:
    """Times the chunks of one pass, calibrating before and after each.

    Construct it right before the timed work; call ``lap()`` at the end of
    every chunk, including the last. Calibration time is not part of any
    chunk.
    """

    def __init__(self) -> None:
        self.cal_s = [calibration_s()]
        self.wall_s: list[float] = []
        self._start = time.perf_counter()

    def lap(self) -> None:
        end = time.perf_counter()
        self.wall_s.append(end - self._start)
        self.cal_s.append(calibration_s())
        self._start = time.perf_counter()

    def chunks_s(self) -> list[float]:
        """Each chunk's wall time rescaled by the slower calibration around it."""
        return [wall * (CAL_REF_S / max(before, after)) ** CAL_EXPONENT
                for wall, before, after in zip(self.wall_s, self.cal_s, self.cal_s[1:])]

    def summary(self) -> dict:
        chunks = self.chunks_s()
        return dict(pass_s=sum(chunks), chunks_s=chunks,
                    pass_wall_s=sum(self.wall_s), chunks_wall_s=self.wall_s,
                    cal_s=self.cal_s,
                    speed=CAL_REF_S / sorted(self.cal_s)[len(self.cal_s) // 2])


def rescale(wall_s: float, before_s: float) -> float:
    """A one-off time rescaled by the slower of ``before_s``, a calibration
    taken before it, and one taken right after it."""
    return wall_s * (CAL_REF_S / max(before_s, calibration_s(runs=5))) ** CAL_EXPONENT
