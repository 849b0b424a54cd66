"""The clocks of the benchmark: CPU time, and a reference for CPU speed.

On the shared 2-vCPU virtual machine where the benchmark was defined, the
host takes the CPU away for stretches: a fixed pure-Python loop timed 60
times read a coefficient of variation of 0.22-0.29 in wall time and
0.06-0.07 in CPU time.  sympt is single-threaded and does no waiting, so
the CPU time of an op is its latency without the host's stalls.  Children
are included once they have been waited for, which covers the CLI calls of
cli_cold.

The speed of that CPU also drifts, by 10-20% over tens of seconds, for
sympt and for a plain loop alike.  reference_s() times a fixed integer loop
that allocates nothing the garbage collector tracks, so nothing sympt does
can change its cost.  The timed passes run it every REFERENCE_EVERY_S of
CPU time and scale each op by REFERENCE_S over the median loop time within
REFERENCE_WINDOW_S of CPU time around the op.
"""

import resource
import time

# CPU seconds of one reference_s() loop at the speed the reported times are
# scaled to (the median on the machine that defined the benchmark)
REFERENCE_S = 0.0055
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 3.0


def cpu_s() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_s() -> float:
    """CPU seconds of one fixed integer loop."""
    start = time.process_time()
    total = 0
    for i in range(60000):
        total += i * i % 7
    return time.process_time() - start
