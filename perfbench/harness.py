"""Closed-loop runner: two party threads in one process, one session.

Party A (client) and party B (server) each own a long-lived thread that runs
submitted jobs in order.  A session is set up, then inferences run back to
back, each submitted only after the previous one has finished on both
parties.  Every inference's ledger slice is kept, so bytes, rounds and
simulated time are per inference and never include set-up traffic.
"""

from __future__ import annotations

import math
import queue
import socket
import threading
import time
from dataclasses import dataclass

from privblock.channel import PROFILES, CostReport, connect, make_pair
from privblock.hecore import ntt
from privblock.protocols import make_party

from workloads import PROFILE, Check, Workload


class Hung(RuntimeError):
    """A party did not finish before the run's deadline."""


class Party:
    """One party's worker thread; runs submitted jobs one at a time."""

    def __init__(self, role: str):
        self.role = role
        self._jobs = queue.Queue()
        self._done = queue.Queue()
        self._thread = threading.Thread(target=self._loop, name=f"party-{role}",
                                        daemon=True)
        self._thread.start()

    def _loop(self):
        while (job := self._jobs.get()) is not None:
            try:
                self._done.put((job(), None))
            except Exception as e:  # PartyPair.run re-raises it
                self._done.put((None, e))

    def submit(self, job):
        self._jobs.put(job)

    def result(self, timeout: float):
        try:
            return self._done.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            raise Hung(f"party {self.role} did not finish in time") from None

    def stop(self, timeout: float):
        self._jobs.put(None)
        self._thread.join(timeout)


class PartyPair:
    """Both party threads plus the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.a, self.b = Party("A"), Party("B")

    def run(self, job_a, job_b, sessions=()):
        """Run one job per party and return both results.  When one party
        raises, the sessions are closed so its peer stops waiting too."""
        self.a.submit(job_a)
        self.b.submit(job_b)
        outs, errors = [], []
        for party in (self.a, self.b):
            out, err = party.result(self.deadline - time.monotonic())
            outs.append(out)
            if err is not None:
                errors.append(err)
                for sess in sessions:
                    sess.close()
        if errors:
            raise errors[0]
        return outs

    def each(self, job_of_role, sessions=()):
        return self.run(lambda: job_of_role("A"), lambda: job_of_role("B"), sessions)

    def stop(self):
        for party in (self.a, self.b):
            party.stop(max(self.deadline - time.monotonic(), 1.0))


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@dataclass
class Setup:
    ctxs: tuple       # (ctx_a, ctx_b)
    seconds: float
    report: CostReport

    @property
    def sessions(self):
        return tuple(c.session for c in self.ctxs)

    def close(self):
        for sess in self.sessions:
            sess.close()


def set_up(pair: PartyPair, wl: Workload, seed: int) -> Setup:
    """Open a fresh session and ready both parties: NTT plans, backend,
    connect and handshake, keygen and key exchange."""
    cfg = wl.config()
    profile = PROFILES[PROFILE]
    ntt._TABLES.clear()  # plans are cached per process; set-up pays for them
    if wl.transport == "tcp":
        blob = cfg.he.param_hash() + bytes([cfg.fixedpoint.k, cfg.fixedpoint.s])
        endpoint = ("127.0.0.1", _free_port())
        sessions = {}

        def job(role):
            return make_party(role, connect(role, endpoint, profile, blob), cfg, seed)
    else:
        sessions = dict(zip("AB", make_pair(profile)))

        def job(role):
            return make_party(role, sessions[role], cfg, seed)
    t0 = time.perf_counter()
    ctxs = tuple(pair.each(job, sessions.values()))
    seconds = time.perf_counter() - t0
    return Setup(ctxs, seconds, ctxs[0].session.report())


@dataclass
class Sample:
    """One inference: wall and CPU time, its ledger slice and its gate.
    An inference that raised has no times and no report."""

    latency: float | None
    cpu: float | None
    report: CostReport | None
    check: Check
    traffic_error: str = ""

    @property
    def ok(self) -> bool:
        return self.check.ok and not self.traffic_error

    @property
    def problem(self) -> str:
        return self.check.reason or self.traffic_error


def _slice_report(session, start: int) -> CostReport:
    ledger = session.ledger
    part = type(ledger)(ledger.profile)
    part.entries = ledger.entries[start:]
    return part.report()


def infer(pair: PartyPair, wl: Workload, setup: Setup, inputs: dict) -> Sample:
    ctx_a, ctx_b = setup.ctxs
    start = len(ctx_a.session.ledger.entries)
    c0, t0 = time.process_time(), time.perf_counter()
    out_a, out_b = pair.run(lambda: wl.infer(ctx_a, inputs),
                            lambda: wl.infer(ctx_b, inputs), setup.sessions)
    t1, c1 = time.perf_counter(), time.process_time()
    cfg = wl.config()
    report = _slice_report(ctx_a.session, start)
    return Sample(t1 - t0, c1 - c0, report, wl.check(cfg, inputs, out_a, out_b),
                  wl.traffic_error(cfg, report))


def closed_loop(pair: PartyPair, wl: Workload, setup: Setup, inputs: dict,
                seconds: float, before=None) -> list:
    """Inferences back to back until ``seconds`` have passed (at least one).
    ``before(i)`` runs ahead of inference i, outside its timing."""
    samples = []
    t_end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < t_end:
        if before:
            before(len(samples))
        try:
            samples.append(infer(pair, wl, setup, inputs))
        except Exception as e:  # a failed inference; its session is unusable
            samples.append(Sample(None, None, None,
                                  Check(False, math.inf, f"{type(e).__name__}: {e}")))
            break
    return samples

