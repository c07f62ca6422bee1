"""Machine-speed probe: rescales measured CPU time to a reference speed.

On a shared VM the speed the machine gives one process changes within
seconds: the same pass of line-bundle ops took 0.96 to 1.80 CPU seconds
within three minutes, and the medians of two sets of runs of one build
moved by up to 71%.  ``probe`` is a fixed pure-Python job (lists of
integers mod p, the kind of loop mfcat spends its time in) that runs no
mfcat code, so its time follows the machine and not the program.  A
``Sampler`` runs it before and after every timed op and, from a timer,
every ``EVERY_S`` seconds inside long ops; an op's CPU time, less the
probes run inside it, is multiplied by ``REF_S`` over the mean time of the
probes around and inside it.  Interleaved this way, the spread of that
line-bundle pass fell from 27% to 4% (IQR over median, 70 passes).
"""

import signal
import time

# CPU seconds of one probe at the reference speed: about its median on the
# 2-CPU VM the stored baselines come from.
REF_S = 0.0035
EVERY_S = 0.2


def probe():
    """Run the fixed job once; return its CPU seconds."""
    c0 = time.process_time()
    rows = [[(i * j) % 32003 for j in range(40)] for i in range(120)]
    for r in rows:
        piv = r[1] or 1
        r[:] = [(x * piv + 7) % 32003 for x in r]
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.process_time() - c0


class Sampler:
    """Probe times in order, with the CPU and wall time spent probing.

    ``start`` arms a wall-clock timer (SIGALRM) that probes every
    ``EVERY_S``; Python runs the handler between bytecodes of the main
    thread, so it also samples inside long ops.  A CPU-time timer
    (ITIMER_PROF) would not do: while one is armed, Linux reports process
    CPU time in coarse steps."""

    def __init__(self):
        self.samples = []
        self.cpu_spent = 0.0
        self.wall_spent = 0.0
        self._busy = False

    def probe(self):
        if self._busy:          # the timer fired inside a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        cpu = probe()
        self.samples.append(cpu)
        self.cpu_spent += cpu
        self.wall_spent += time.perf_counter() - t0
        self._busy = False

    def _tick(self, signum, frame):
        self.probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """State before a timed stretch, for ``since``."""
        return len(self.samples) - 1, self.cpu_spent, self.wall_spent

    def since(self, mark, cpu_s, wall_s):
        """Close a stretch that began at ``mark`` and took ``cpu_s`` /
        ``wall_s`` including any probes inside it: probe once more, and
        return (cpu_s, wall_s, ref_s) with the probes taken out, where
        ``ref_s`` is the CPU time rescaled to the reference speed."""
        first, cpu0, wall0 = mark
        cpu_s -= self.cpu_spent - cpu0
        wall_s -= self.wall_spent - wall0
        self.probe()
        around = self.samples[max(first, 0):]
        return cpu_s, wall_s, cpu_s * REF_S * len(around) / sum(around)
