"""Span tracing from outside the program.

``Tracer.install`` wraps the public methods of ``Session`` (and its two
transports), both HE backends, ``NttPlan`` and ``GadgetProvider``, plus the
``pi_*`` protocol entry points and ``infer_block`` wherever a privblock
module holds them.  Each call on a party thread becomes one span: name,
start, end and the index of its parent span on the same thread.  Spans stay
in memory and are written out once, when the run ends; ``summarize`` folds
them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
import threading
import time

from privblock import channel, model, protocols, sharing
from privblock.hecore import clear, noise_budget_bits, ntt, rlwe

CLASSES = (channel.Session, channel.PairSession, channel.TcpSession,
           clear.ClearBackend, rlwe.RlweBackend, ntt.NttPlan,
           sharing.GadgetProvider)
PROTOCOLS = {"pi_matmul": "matmul", "pi_matmul_shared": "mmshared",
             "pi_softmax": "softmax", "pi_ln": "ln", "pi_gelu": "gelu"}
FUNCTIONS = (*PROTOCOLS, "infer_block")
_FUNCTION_OWNERS = (protocols, model)

HE_OPS = {"encrypt": ("encrypt",), "decrypt": ("decrypt",),
          "mul_pt": ("mul_pt",), "mul_ct": ("mul_ct",),
          "add": ("add_ct", "add_pt", "sub_pt", "neg_ct"),
          "serialize": ("serialize",), "deserialize": ("deserialize",)}
GADGETS = {"lt": ("lt",), "b2a": ("b2a",), "rexp": ("rexp",),
           "invsqrt": ("invsqrt",),
           "convert": ("field_to_ring", "ring_to_field_strict",
                       "ring_to_field_strict_trunc"),
           "rescale": ("rescale_field", "trunc_faithful"),
           "rowmax": ("row_max",)}
STAGES = model.BLOCK_STAGES
_HEAD_RE = re.compile(r"head\d+")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _info(name: str, args, kwargs, out):
    """Per-span detail the summary needs: frame kind, gadget width, the
    noise budget of a returned ciphertext, or a phase label."""
    method = name.rsplit(".", 1)[-1]
    if name.startswith("Session.send"):
        return kwargs.get("metered", args[3] if len(args) > 3 else True)
    if name.startswith("GadgetProvider.") and method != "charge" and len(args) > 1:
        return len(args[1])
    if name.startswith(("ClearBackend.", "RlweBackend.")) and hasattr(out, "noise_bits"):
        return noise_budget_bits(args[0].params, out.noise_bits)
    if method == "push_phase":
        return args[1]
    return None


class Tracer:
    """Installs and removes the wrappers; owns the spans of one run."""

    def __init__(self):
        self._local = threading.local()
        self.spans = {}       # party -> [Span]
        self._undo = []

    # -- party threads ------------------------------------------------------
    def bind(self, party: str):
        """Record spans of the calling thread under ``party``."""
        self._local.spans = self.spans.setdefault(party, [])
        self._local.stack = []

    def mark(self) -> dict:
        """Current span count per party, to cut the record into windows."""
        return {party: len(spans) for party, spans in self.spans.items()}

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                return fn(*args, **kwargs)
            spans = local.spans
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _info(name, args, kwargs, out)
            return out

        return traced

    def install(self):
        for cls in CLASSES:
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(f"{cls.__name__}.{attr}", fn))
        originals = {fname: getattr(owner, fname)
                     for owner in _FUNCTION_OWNERS for fname in FUNCTIONS
                     if hasattr(owner, fname)}
        wrapped = {fname: self._wrap(fname, fn) for fname, fn in originals.items()}
        for mod in [m for n, m in sys.modules.items() if n.startswith("privblock")]:
            for fname, fn in originals.items():
                if getattr(mod, fname, None) is fn:
                    self._undo.append((mod, fname, fn))
                    setattr(mod, fname, wrapped[fname])

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def dump(self, path: str):
        with open(path, "w") as f:
            for party, spans in self.spans.items():
                for i, s in enumerate(spans):
                    f.write(json.dumps({"party": party, "id": i, "name": s.name,
                                        "parent": s.parent, "start": s.start,
                                        "end": s.end, "info": s.info}) + "\n")


def _method(span) -> str:
    return span.name.rsplit(".", 1)[-1]


def _stage_times(spans) -> dict:
    """Wall time per block stage from top-level push/pop_phase pairs."""
    out = dict.fromkeys(STAGES, 0.0)
    depth, opened = 0, None
    for s in spans:
        if _method(s) == "push_phase":
            if depth == 0:
                opened = s
            depth += 1
        elif _method(s) == "pop_phase":
            depth -= 1
            if depth == 0:
                stage = "head" if _HEAD_RE.fullmatch(opened.info) else opened.info
                if stage in out:
                    out[stage] += s.end - opened.start
    return out


def summarize(tracer: Tracer, windows: dict, setup: dict, latencies: list) -> dict:
    """Per-inference layer metrics, summed over both parties unless the name
    says which.  ``windows`` maps party -> one (lo, hi) span-index range per
    traced inference, ``setup`` maps party -> the traced set-up's range and
    ``latencies`` holds the traced inference wall times."""
    n = len(latencies)
    self_s, by_party = {}, {}
    for party, ranges in windows.items():
        every = tracer.spans[party]
        child = [0.0] * len(every)
        for s in every:
            if s.parent >= 0:
                child[s.parent] += s.dur
        idx = [i for lo, hi in ranges for i in range(lo, hi)]
        by_party[party] = [every[i] for i in idx]
        for i in idx:
            self_s[id(every[i])] = every[i].dur - child[i]
    spans = by_party["A"] + by_party["B"]

    def pick(*names, prefix=""):
        return [s for s in spans if _method(s) in names and s.name.startswith(prefix)]

    def per(xs):
        return sum(xs) / n

    m = {}
    sends = pick("send", prefix="Session.")
    m["channel.frames"] = per(1 for s in sends if s.info)
    m["channel.gadget_frames"] = per(1 for s in sends if not s.info)
    m["channel.send_s"] = per(s.dur for s in sends)
    for party in ("A", "B"):
        wait = per(s.dur for s in by_party[party] if s.name == "Session.recv")
        m[f"channel.recv_wait_s.{party}"] = wait
        m[f"party.{party}.busy_s"] = per(latencies) - wait
    he = [s for s in spans if s.name.startswith(("ClearBackend.", "RlweBackend."))]
    for op, names in HE_OPS.items():
        hit = [s for s in he if _method(s) in names]
        m[f"hecore.{op}.calls"] = per(1 for _ in hit)
        m[f"hecore.{op}.busy_s"] = per(s.dur for s in hit)
    budgets = [s.info for s in he if s.info is not None]
    m["hecore.min_noise_budget_bits"] = min(budgets) if budgets else 0.0
    m["hecore.keygen_s"] = sum(s.dur for party, (lo, hi) in setup.items()
                               for s in tracer.spans[party][lo:hi]
                               if s.name.endswith("Backend.keygen"))
    for d in ("forward", "inverse"):
        hit = pick(d, prefix="NttPlan.")
        m[f"ntt.{d}.calls"] = per(1 for _ in hit)
        m[f"ntt.{d}.busy_s"] = per(s.dur for s in hit)
    for g, names in GADGETS.items():
        hit = pick(*names, prefix="GadgetProvider.")
        m[f"sharing.{g}.calls"] = per(1 for _ in hit)
        m[f"sharing.{g}.elements"] = per(s.info for s in hit)
        m[f"sharing.{g}.busy_s"] = per(s.dur for s in hit)
    for fname, p in PROTOCOLS.items():
        hit = [s for s in spans if s.name == fname]
        m[f"protocols.{p}.calls"] = per(1 for _ in hit)
        m[f"protocols.{p}.busy_s"] = per(s.dur for s in hit)
        m[f"protocols.{p}.self_s"] = per(self_s[id(s)] for s in hit)
    for k, v in _stage_times(by_party["A"]).items():
        m[f"model.{k}_s"] = v / n
    return m
