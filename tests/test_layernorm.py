import threading

import numpy as np
import pytest

from privblock import fixedpoint as fp
from privblock.protocols import (DegenerateRow, LnParams, ShapeMismatch, costs,
                                 pi_ln)
from privblock.sharing import reconstruct, share


def _run(cfg, pair_runner, x, gamma, beta, seed=0, want=None):
    m, n = x.shape
    xe = fp.encode_int(x, cfg.fixedpoint, "ring", cfg.fixedpoint.s)
    rng = np.random.default_rng(seed)
    xa, xb = share(xe.ravel(), "ring", cfg.fixedpoint, rng)
    out = pair_runner(cfg,
                      lambda ctx: pi_ln(ctx, xa, (m, n), None),
                      lambda ctx: pi_ln(ctx, xb, (m, n), LnParams(gamma, beta)),
                      seed=seed, want_reports=(want == "reports"),
                      want_transcript=(want == "transcript"))
    if want:
        ra, rb, rep, extra = out
    else:
        (ra, rb), rep, extra = out, None, None
    y = fp.decode_int(reconstruct(ra.share, rb.share), cfg.fixedpoint,
                      "field", ra.scale).reshape(m, n)
    return y, rep, extra


def _oracle(x, gamma, beta):
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    return gamma * (x - mu) / sd + beta


def test_zero_gamma_returns_beta(toy_cfg, pair_runner):
    rng = np.random.default_rng(1)
    x = rng.normal(0, 2, size=(3, 8))
    beta = rng.uniform(-1, 1, 8)
    y, _, _ = _run(toy_cfg, pair_runner, x, np.zeros(8), beta)
    assert np.abs(y - beta).max() <= 2.0 ** -6


def test_small_row_oracle_example(toy_cfg, pair_runner):
    x = np.array([[1.0, 2.0, 3.0]])
    y, _, _ = _run(toy_cfg, pair_runner, x, np.ones(3), np.zeros(3))
    want = np.array([[-1.22474487, 0.0, 1.22474487]])
    assert np.abs(y - want).max() <= 2.0 ** -6


@pytest.mark.parametrize("shape,seed", [((4, 16), 2), ((8, 32), 3), ((32, 64), 4)])
def test_random_oracle_equivalence(toy_cfg, pair_runner, shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1.0, size=shape)
    gamma = rng.uniform(0.5, 1.5, shape[1])
    beta = rng.uniform(-1, 1, shape[1])
    y, _, _ = _run(toy_cfg, pair_runner, x, gamma, beta, seed=seed)
    assert np.abs(y - _oracle(x, gamma, beta)).max() <= 2.0 ** -6


def test_degenerate_row_raises_on_both_parties(toy_cfg, pair_runner):
    x = np.full((2, 8), 0.75)  # zero variance
    with pytest.raises(DegenerateRow):
        _run(toy_cfg, pair_runner, x, np.ones(8), np.zeros(8))


def test_cost_formula_exact(toy_cfg, pair_runner):
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, size=(8, 16))
    y, rep, _ = _run(toy_cfg, pair_runner, x, np.ones(16), np.zeros(16),
                     seed=5, want="reports")
    got = {k.split("/", 1)[1]: v["bytes_a"] + v["bytes_b"]
           for k, v in rep.phases.items() if k.startswith("ln/")}
    assert got == costs.ln_bytes(toy_cfg, 8, 16)


def test_transcript_shape(toy_cfg, pair_runner):
    rng = np.random.default_rng(6)
    x = rng.normal(0, 1, size=(4, 8))
    _, _, tr = _run(toy_cfg, pair_runner, x, np.ones(8), np.zeros(8),
                    seed=6, want="transcript")
    labels = [(k, d, l) for k, d, l in tr if l.startswith("ln/")]
    assert labels == [
        ("charge", "AB", "ln/gadget:trunc"),
        ("charge", "AB", "ln/gadget:convert"),
        ("frame", "B", "ln/ashare"),
        ("frame", "A", "ln/masked_square"),
        ("charge", "AB", "ln/gadget:convert"),
        ("charge", "AB", "ln/gadget:invsqrt"),
        ("frame", "B", "ln/invsqrt_share"),
        ("frame", "A", "ln/masked_ratio"),
        ("frame", "B", "ln/result"),
    ]


def test_determinism(toy_cfg, pair_runner):
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, size=(4, 8))

    def run():
        y, rep, _ = _run(toy_cfg, pair_runner, x, np.ones(8), np.zeros(8),
                         seed=9, want="reports")
        return y.tobytes(), rep.to_dict()

    assert run() == run()


def test_one_sided_error_reaches_the_caller_promptly(toy_cfg, pair_runner):
    """B rejects gamma/beta of the wrong width before it sends anything.  A,
    blocked in recv, is released, and B's error is the one raised."""
    x = np.random.default_rng(8).normal(0, 1, size=(4, 16))
    caught = {}

    def run():
        try:
            _run(toy_cfg, pair_runner, x, np.ones(15), np.zeros(15))
        except Exception as e:  # noqa: BLE001 - inspected below
            caught["err"] = e

    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive(), "run_pair still waiting after 10 s"
    assert isinstance(caught.get("err"), ShapeMismatch)
