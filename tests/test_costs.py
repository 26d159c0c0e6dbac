"""Every protocol's ledger equals its ``costs`` formula on both backends.

At N=256 each protocol runs once on ``clear`` and once on ``rlwe``; the
bytes of each of its phases must equal the closed form, fresh encryptions
priced seeded and every other ciphertext whole.
"""

import numpy as np
import pytest

from privblock import fixedpoint as fp
from privblock.params import GadgetCostTable
from privblock.hecore import ct_bytes
from privblock.protocols import (LnParams, costs, pi_gelu, pi_ln, pi_matmul,
                                 pi_matmul_shared, pi_softmax)
from privblock.sharing import FIELD, RING, share


def _cases(cfg):
    """(phase prefix, party A, party B, formula) of every protocol."""
    f = cfg.fixedpoint
    rng = np.random.default_rng(44)

    def shares(x, domain):
        return share(fp.encode_int(x, f, domain, f.s).ravel(), domain, f, rng)

    a = rng.integers(0, 1 << 20, size=(6, 40), dtype=np.uint64)
    b = rng.integers(0, 1 << 20, size=(40, 9), dtype=np.uint64)
    qa, qb = share(rng.integers(0, 1 << 24, size=5 * 7, dtype=np.uint64), FIELD, f, rng)
    ka, kb = share(rng.integers(0, 1 << 24, size=4 * 7, dtype=np.uint64), FIELD, f, rng)
    sa, sb = shares(rng.uniform(-5, 0, size=(8, 12)), RING)
    ma, mb = shares(rng.uniform(-3, 4, size=(4, 10)), RING)
    la, lb = shares(rng.normal(0, 1, size=(8, 16)), RING)
    ln = LnParams(rng.uniform(0.5, 1.5, 16), rng.uniform(-1, 1, 16))
    ga, gb = shares(rng.uniform(-8, 8, size=(4, 32)), FIELD)
    return {
        "matmul": ("matmul", lambda c: pi_matmul(c, a, (6, 40, 9)),
                   lambda c: pi_matmul(c, b, (6, 40, 9)),
                   costs.matmul_bytes(cfg, 6, 40, 9)),
        "packed": ("matmul", lambda c: pi_matmul(c, a, (6, 40, 9), packed=True),
                   lambda c: pi_matmul(c, b, (6, 40, 9), packed=True),
                   costs.matmul_bytes(cfg, 6, 40, 9, packed=True)),
        "mmshared": ("mmshared", lambda c: pi_matmul_shared(c, qa, ka, (5, 7), (4, 7)),
                     lambda c: pi_matmul_shared(c, qb, kb, (5, 7), (4, 7)),
                     costs.matmul_shared_bytes(cfg, 5, 7, 4)),
        "softmax": ("softmax", lambda c: pi_softmax(c, sa, (8, 12)),
                    lambda c: pi_softmax(c, sb, (8, 12)),
                    costs.softmax_bytes(cfg, 8, 12)),
        "softmax_max": ("softmax", lambda c: pi_softmax(c, ma, (4, 10), "max"),
                        lambda c: pi_softmax(c, mb, (4, 10), "max"),
                        costs.softmax_bytes(cfg, 4, 10, "max")),
        "ln": ("ln", lambda c: pi_ln(c, la, (8, 16), None),
               lambda c: pi_ln(c, lb, (8, 16), ln), costs.ln_bytes(cfg, 8, 16)),
        "gelu": ("gelu", lambda c: pi_gelu(c, ga, (4, 32)),
                 lambda c: pi_gelu(c, gb, (4, 32)), costs.gelu_bytes(cfg, 4, 32)),
    }


@pytest.mark.parametrize("backend_cfg", ["toy_cfg", "rlwe_toy_cfg"])
def test_every_ledger_equals_its_formula(backend_cfg, request, pair_runner):
    cfg = request.getfixturevalue(backend_cfg)
    fresh = ct_bytes(cfg.he, seeded=True)
    assert fresh == 16 + 32 + cfg.he.limbs * cfg.he.n * 4 < ct_bytes(cfg.he)
    for name, (prefix, fa, fb, formula) in _cases(cfg).items():
        _, _, rep, _ = pair_runner(cfg, fa, fb, seed=8, want_reports=True)
        got = {k.split("/", 1)[1]: v["bytes_a"] + v["bytes_b"]
               for k, v in rep.phases.items() if k.startswith(prefix + "/")}
        assert got == formula, (backend_cfg, name)


def test_cost_table_fingerprint():
    """The default table's fingerprint is stable, a table equal to it has
    the same one, and an lt override changes it."""
    default = GadgetCostTable()
    assert default.fingerprint() == "016e214d"
    same = GadgetCostTable.from_dict({"lt": {"bytes_per_element": 592, "rounds": 4}})
    assert same.fingerprint() == default.fingerprint()
    cheap = GadgetCostTable.from_dict({"lt": {"bytes_per_element": 100, "rounds": 4}})
    assert cheap.fingerprint() != default.fingerprint()
