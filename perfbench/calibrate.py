"""Host-speed calibration: a fixed yardstick timed after every step.

The benchmark's host is a few cores of a shared machine whose speed
drifts, within seconds and over minutes, by up to 2x on allocation-heavy
Python.  That drift moves every time the benchmark reports, so two runs
of the same code can differ by more than any change worth measuring.

The cure is a yardstick timed next to the program.  It has two parts,
each a fixed piece of pure Python that uses nothing from ``src/`` and
runs in a child process of its own:

``core``
    builds, serializes and indexes 2 000 small dicts in a small heap,
    so it runs mostly in the core's caches;
``memory``
    walks a resident heap of 150 000 small objects and builds 6 000
    dicts beside it, so it waits on memory and its collections cross a
    heap of the program's size.

The host's drift slows the two parts by different amounts, and the
program's steps, which do both kinds of work, fall in between: of the
two parts alone, ``core`` moved more than the steps and ``memory``
less.  One yardstick measurement is the geometric mean of the two
parts' times.  It runs after every set-up and every step, never beside
them.  Each span is then scaled by ``REFERENCE_S`` over the median of
the last ``WINDOW`` measurements, so it reads as it would on a host
where the yardstick takes ``REFERENCE_S``.  A change to the program
moves the scaled times as it moves the raw ones, because the yardstick
does not change with it; a change of host speed moves the yardstick
with the step and largely cancels.

Run directly with a part's name, this module is that part's child: it
answers every line on its standard input with one time in seconds.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time

#: The yardstick's median time on the 2 vCPU host the benchmark was
#: tuned on: scaled times are the times on a host as fast as that one.
REFERENCE_S = 0.010

#: Measurements in the trailing median that scales a span.  The host's
#: speed moves within seconds as well as over minutes, so the window
#: is short; the median drops the odd measurement that one of the
#: children's own collections lands in.
WINDOW = 3

#: Measurements before the first span: the children's first calls run
#: with cold caches and growing heaps.
WARM_CALLS = 5

#: Objects the ``memory`` child keeps resident, of the order the
#: service's request history keeps alive.
RESIDENT = 150000

PARTS = ("core", "memory")


def build(size: int) -> list:
    """Build, serialize and index a tree of small dicts and lists:
    allocation, string formatting and dict work, as in the program."""
    nodes = []
    for i in range(size):
        nodes.append({"tag": "e%d" % (i % 50), "id": str(i),
                      "kids": [str(i), i * 2, (i, i)]})
    text = "".join('<%s id="%s">%s</%s>' % (node["tag"], node["id"],
                                             node["kids"][0], node["tag"])
                   for node in nodes)
    index = {}
    for node in nodes:
        index.setdefault(node["tag"], []).append(node)
    return [text, index]


def walk(resident: list) -> int:
    """Pointer-chase through every resident object once."""
    total = 0
    for item in resident:
        total += item["v"][0]
    return total


def _serve(part: str) -> None:
    resident = ([{"k": str(i), "v": [i, i + 1]} for i in range(RESIDENT)]
                if part == "memory" else [])
    for _ in sys.stdin:
        # A small untimed build first takes the cache misses that the
        # program's step has just caused.
        build(500)
        started = time.perf_counter()
        if part == "memory":
            walk(resident)
            build(6000)
        else:
            build(2000)
        sys.stdout.write(f"{time.perf_counter() - started!r}\n")
        sys.stdout.flush()


class Calibrator:
    """The yardstick's child processes; use as a context manager."""

    def __init__(self):
        self.times = []
        self._children = []
        try:
            for part in PARTS:
                self._children.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), part],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
            for _ in range(WARM_CALLS):
                self.times.append(self._call())
        except BaseException:
            self.close()
            raise

    def _call(self) -> float:
        seconds = []
        for child in self._children:
            child.stdin.write("\n")
            child.stdin.flush()
            line = child.stdout.readline()
            if not line:
                raise RuntimeError("calibration child exited")
            seconds.append(float(line))
        return math.prod(seconds) ** (1.0 / len(seconds))

    def measure(self) -> float:
        """Measures the yardstick once; returns the factor that scales
        a span timed just before: ``REFERENCE_S`` over the median of the
        last ``WINDOW`` measurements."""
        self.times.append(self._call())
        return REFERENCE_S / statistics.median(self.times[-WINDOW:])

    def close(self) -> None:
        for child in self._children:
            if child.poll() is None:
                child.stdin.close()
                try:
                    child.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()
            child.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _serve(sys.argv[1])
