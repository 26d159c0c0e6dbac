"""Tests of the benchmark itself, at reduced shapes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import numpy as np
import pytest

import run  # puts src/ on the path
import tracing
import workloads
from privblock import channel
from privblock.model import BlockConfig

SMALL = {
    "matmul": lambda: workloads.MatmulWorkload((4, 16, 8), name="matmul-small-tcp"),
    "gelu": lambda: workloads.GeluWorkload((4, 64), name="gelu-small-clear"),
    "block": lambda: workloads.BlockWorkload(BlockConfig(4, 8, 2, 4, 16),
                                             backend="clear", name="block-small-clear"),
}


@pytest.fixture(params=sorted(SMALL))
def small(request):
    return SMALL[request.param]()


def _units(kind):
    return {m["name"]: m["unit"] for m in run._spec()[kind]}


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(small, trace):
    result = run.run_workload(small, seed=3, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]), name
    if not trace:
        for name in want:
            assert result["metrics"][name]["value"] > 0, name


def test_traced_run_restores_the_program():
    before = channel.Session.send
    run.run_workload(SMALL["block"](), seed=1, seconds=0.0, trace=True)
    assert channel.Session.send is before
    assert not any(hasattr(f, "__wrapped__") for f in
                   (channel.Session.recv, workloads.protocols.pi_gelu,
                    workloads.model.infer_block))


def test_trace_fills_layers_where_they_run():
    values = {}
    for kind in ("block", "matmul"):
        res = run.run_workload(SMALL[kind](), seed=2, seconds=0.0, trace=True)
        values[kind] = {k: v["value"] for k, v in res["metrics"].items()}
    block, matmul = values["block"], values["matmul"]
    for p in ("matmul", "mmshared", "softmax", "ln", "gelu"):
        assert block[f"protocols.{p}.calls"] > 0
    for stage in tracing.STAGES:
        assert block[f"model.{stage}_s"] > 0
    assert block["sharing.rexp.calls"] > 0 and block["sharing.invsqrt.elements"] > 0
    assert matmul["protocols.matmul.calls"] == 2  # one span per party
    assert all(matmul[f"sharing.{g}.calls"] == 0 for g in tracing.GADGETS)
    assert matmul["ntt.forward.calls"] == 0
    assert matmul["channel.frames"] == 2 and matmul["channel.gadget_frames"] == 0


class _CorruptOne:
    """Wraps a workload so party A's output share is off by 0.25 in one slot."""

    def __init__(self, wl):
        self.wl = wl

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def infer(self, ctx, inputs):
        out = self.wl.infer(ctx, inputs)
        if ctx.role == "A":
            pay = out.share.payload
            pay[0] = (int(pay[0]) + (1 << (out.scale - 2))) % out.share.modulus
        return out


def test_gate_trips_on_one_corrupted_share_element(small):
    result = run.run_workload(_CorruptOne(small), seed=5, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_seed_changes_inputs_not_traffic(small):
    a, b = small.make_inputs(1), small.make_inputs(2)
    assert not np.array_equal(np.asarray(a["oracle" if "oracle" in a else "exact"]),
                              np.asarray(b["oracle" if "oracle" in b else "exact"]))
    r1 = run.run_workload(small, seed=1, seconds=0.0, trace=False)["metrics"]
    r2 = run.run_workload(small, seed=2, seconds=0.0, trace=False)["metrics"]
    for name in ("comm_bytes", "rounds", "sim_wan1_s"):
        assert r1[name]["value"] == r2[name]["value"], name


def test_fixed_seed_repeats_ledger_and_error_exactly(small):
    r1 = run.run_workload(small, seed=4, seconds=0.0, trace=False)["metrics"]
    r2 = run.run_workload(small, seed=4, seconds=0.0, trace=False)["metrics"]
    for name in ("comm_bytes", "rounds", "sim_wan1_s", "accuracy_bits"):
        assert r1[name]["value"] == r2[name]["value"], name


def test_raised_inference_counts_as_failed():
    class Broken(workloads.GeluWorkload):
        def infer(self, ctx, inputs):
            if ctx.role == "A":
                raise ValueError("party A gives up")
            return super().infer(ctx, inputs)

    result = run.run_workload(Broken((2, 8), name="gelu-broken"), seed=1,
                              seconds=0.0, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
