"""Host-speed calibration for the end-to-end times.

The benchmark's host is a shared VM whose speed drifts by tens of percent
within seconds to minutes, and CPU time drifts with it. To take that out of
the times, the benchmark keeps a calibration loop running for as long as it
measures. The loop is pinned to the same CPU as every measured command, at
nice 5, so the scheduler interleaves the two every few milliseconds and the
loop sees the host at the same moments as the command, while taking about a
quarter of the CPU. A command's host-corrected time is its CPU time times
the loop's speed over the command's lifetime, relative to REFERENCE_RATE.

The drift does not hit all code alike, so the loop alternates two kinds of
chunk and keeps a speed for each:

- "python": a pure-Python RK4 of a forced oscillator, with a function call
  per force evaluation. It tracks interpreter-bound code such as Benettin
  exponents, Poincare maps and delayed integration.
- "numpy": ufuncs on arrays of 10 000 floats. It tracks the SDE ensemble,
  whose time the "python" speed does not follow.

    python3 perfbench/calibrate.py COUNTER_FILE

runs the loop, writing the chunks done and the CPU seconds spent on each
kind to COUNTER_FILE after every round. It exits when its parent exits.
"""
from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time

NICE = 5
KINDS = ("python", "numpy")
# Chunks per CPU second of each kind on the 2-vCPU Intel Xeon VM the
# benchmark was tuned on. Any constants would do: they only set the scale
# of the corrected times.
REFERENCE_RATE = {"python": 5000.0, "numpy": 2000.0}
# round number, then (chunks, CPU seconds) per kind, then the round number again
_FMT = "d" + "dd" * len(KINDS) + "d"
_SIZE = struct.calcsize(_FMT)


def _force(x: float, v: float, t: float) -> float:
    return -0.1 * v - x - x ** 3 + 0.3 * (1.4 * t % 6.283185307179586)


def _python_chunk() -> None:
    x, v, t, h = 0.1, 0.0, 0.0, 0.01
    for _ in range(100):
        k1x, k1v = v, _force(x, v, t)
        k2x, k2v = v + 0.5 * h * k1v, _force(x + 0.5 * h * k1x, v + 0.5 * h * k1v, t + 0.5 * h)
        k3x, k3v = v + 0.5 * h * k2v, _force(x + 0.5 * h * k2x, v + 0.5 * h * k2v, t + 0.5 * h)
        k4x, k4v = v + h * k3v, _force(x + h * k3x, v + h * k3v, t + h)
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t += h


def _numpy_chunk(a, b, c, np) -> None:
    for _ in range(20):
        np.multiply(a, b, out=c)
        np.add(c, a, out=c)
        np.sqrt(c, out=c)


def loop(path: str) -> None:
    import numpy as np

    a = np.random.default_rng(0).random(10_000)
    b, c = a.copy(), np.empty_like(a)
    chunks = [_python_chunk, lambda: _numpy_chunk(a, b, c, np)]
    os.nice(NICE)
    parent = os.getppid()
    done = [0.0] * len(KINDS)
    cpu = [0.0] * len(KINDS)
    with open(path, "r+b") as fh, mmap.mmap(fh.fileno(), _SIZE) as counter:
        rounds = 0
        while True:
            for k, chunk in enumerate(chunks):
                c0 = time.process_time()
                chunk()
                cpu[k] += time.process_time() - c0
                done[k] += 1
            rounds += 1
            pairs = [x for k in range(len(KINDS)) for x in (done[k], cpu[k])]
            struct.pack_into(_FMT, counter, 0, float(rounds), *pairs, float(rounds))
            if rounds % 1000 == 0 and os.getppid() != parent:
                return


class Calibrator:
    """Starts the loop, on the CPUs of the calling process, and reads its
    speed over any interval."""

    def __init__(self, path: str):
        with open(path, "wb") as fh:
            fh.write(b"\0" * _SIZE)
        self._fh = open(path, "r+b")
        self._counter = mmap.mmap(self._fh.fileno(), _SIZE)
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), path])
        try:
            while self.read()[KINDS[0]][0] < 100:  # started and past its first chunks
                if self.proc.poll() is not None:
                    raise RuntimeError("calibration loop exited")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def read(self) -> dict:
        """{kind: (chunks done, CPU seconds)}, all from one round of the loop."""
        while True:
            first, *pairs, last = struct.unpack_from(_FMT, self._counter, 0)
            if first == last:
                return {kind: (pairs[2 * k], pairs[2 * k + 1]) for k, kind in enumerate(KINDS)}
            if self.proc.poll() is not None:
                raise RuntimeError("calibration loop exited")

    @staticmethod
    def factor(start: dict, end: dict, kind: str) -> float:
        """Host speed of `kind` between two reads, relative to REFERENCE_RATE."""
        chunks, cpu = end[kind][0] - start[kind][0], end[kind][1] - start[kind][1]
        if chunks < 10 or cpu <= 0:
            raise RuntimeError("calibration loop made no progress")
        return chunks / cpu / REFERENCE_RATE[kind]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._counter.close()
        self._fh.close()


if __name__ == "__main__":
    loop(sys.argv[1])
