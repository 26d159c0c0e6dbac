import math

import numpy as np
import pytest

from privblock import fixedpoint as fp
from privblock.protocols import ShapeMismatch, costs, pi_softmax
from privblock.sharing import reconstruct, share


def _run(cfg, pair_runner, x, seed=0, normalize="none", want_reports=False):
    m, d = x.shape
    xe = fp.encode_int(x, cfg.fixedpoint, "ring", cfg.fixedpoint.s)
    rng = np.random.default_rng(seed)
    xa, xb = share(xe.ravel(), "ring", cfg.fixedpoint, rng)
    out = pair_runner(cfg,
                      lambda ctx: pi_softmax(ctx, xa, (m, d), normalize),
                      lambda ctx: pi_softmax(ctx, xb, (m, d), normalize),
                      seed=seed, want_reports=want_reports)
    if want_reports:
        ra, rb, rep, _ = out
    else:
        ra, rb = out
        rep = None
    y = fp.decode_int(reconstruct(ra.share, rb.share), cfg.fixedpoint,
                      "field", ra.scale).reshape(m, d)
    return y, rep


def _oracle(x):
    e = np.exp(x)
    return e / e.sum(axis=1, keepdims=True)


def test_uniform_rows(toy_cfg, pair_runner):
    x = np.full((3, 8), -1.25)
    y, _ = _run(toy_cfg, pair_runner, x)
    assert np.abs(y - 1.0 / 8).max() <= 2.0 ** -8


def test_ln2_row(toy_cfg, pair_runner):
    # the positive entry exercises the row-max normalization path
    x = np.array([[math.log(2.0), 0.0]])
    y, _ = _run(toy_cfg, pair_runner, x, normalize="max")
    assert abs(y[0, 0] - 2.0 / 3) <= 2.0 ** -8
    assert abs(y[0, 1] - 1.0 / 3) <= 2.0 ** -8


@pytest.mark.parametrize("shape,seed", [((4, 8), 1), ((8, 16), 2), ((32, 32), 3)])
def test_random_oracle_equivalence(toy_cfg, pair_runner, shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 0, size=shape)
    y, _ = _run(toy_cfg, pair_runner, x, seed=seed)
    assert np.abs(y - _oracle(x)).max() <= 2.0 ** -8


def test_rows_sum_to_one(toy_cfg, pair_runner):
    rng = np.random.default_rng(5)
    x = rng.uniform(-5, 0, size=(16, 24))
    y, _ = _run(toy_cfg, pair_runner, x, seed=5)
    assert np.abs(y.sum(axis=1) - 1.0).max() <= 24 * 2.0 ** -8


def test_normalize_max_handles_positive_inputs(toy_cfg, pair_runner):
    rng = np.random.default_rng(6)
    x = rng.uniform(-3, 4, size=(6, 10))
    y, _ = _run(toy_cfg, pair_runner, x, seed=6, normalize="max")
    assert np.abs(y - _oracle(x)).max() <= 2.0 ** -8


def test_cost_formula_exact(toy_cfg, pair_runner):
    rng = np.random.default_rng(7)
    x = rng.uniform(-5, 0, size=(8, 12))
    _, rep = _run(toy_cfg, pair_runner, x, seed=7, want_reports=True)
    got = {k.split("/", 1)[1]: v["bytes_a"] + v["bytes_b"]
           for k, v in rep.phases.items() if k.startswith("softmax/")}
    assert got == costs.softmax_bytes(toy_cfg, 8, 12)


def test_transcript_shape(toy_cfg, pair_runner):
    rng = np.random.default_rng(8)
    x = rng.uniform(-5, 0, size=(4, 4))
    xe = fp.encode_int(x, toy_cfg.fixedpoint, "ring", 12)
    xa, xb = share(xe.ravel(), "ring", toy_cfg.fixedpoint, rng)
    _, _, _, tr = pair_runner(toy_cfg,
                              lambda ctx: pi_softmax(ctx, xa, (4, 4)),
                              lambda ctx: pi_softmax(ctx, xb, (4, 4)),
                              want_transcript=True)
    labels = [(k, d, l) for k, d, l in tr if l.startswith("softmax/")]
    assert labels == [
        ("charge", "AB", "softmax/gadget:rexp"),
        ("frame", "A", "softmax/rowsum_share"),
        ("frame", "B", "softmax/denominator"),
        ("frame", "A", "softmax/result"),
    ]


def test_shape_checks(toy_cfg, pair_runner):
    rng = np.random.default_rng(9)
    xe = np.zeros(12, dtype=np.uint64)
    xa, xb = share(xe, "ring", toy_cfg.fixedpoint, rng)
    with pytest.raises(ShapeMismatch):
        pair_runner(toy_cfg,
                    lambda ctx: pi_softmax(ctx, xa, (5, 5)),
                    lambda ctx: pi_softmax(ctx, xb, (5, 5)))
    fa, fb = share(xe, "field", toy_cfg.fixedpoint, rng)
    with pytest.raises(ShapeMismatch):
        pair_runner(toy_cfg,
                    lambda ctx: pi_softmax(ctx, fa, (3, 4)),
                    lambda ctx: pi_softmax(ctx, fb, (3, 4)))


def test_determinism(toy_cfg, pair_runner):
    rng = np.random.default_rng(10)
    x = rng.uniform(-5, 0, size=(4, 4))

    def run():
        y, rep = _run(toy_cfg, pair_runner, x, seed=42, want_reports=True)
        return y.tobytes(), rep.to_dict()

    assert run() == run()
