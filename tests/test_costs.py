"""Every protocol's ledger equals its ``costs`` formula on both backends.

At N=256 each protocol runs once on ``clear`` and once on ``rlwe``; the
bytes of each of its phases must equal the closed form, fresh encryptions
priced seeded and every other ciphertext whole.
"""

from dataclasses import replace

import numpy as np
import pytest

from privblock import fixedpoint as fp
from privblock.params import Config, GadgetCostTable, ParamError
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
    assert default.fingerprint() == "ffbcbdcb"
    same = GadgetCostTable.from_dict({"lt": {"bytes_per_element": 592, "rounds": 4}})
    assert same.fingerprint() == default.fingerprint()
    cheap = GadgetCostTable.from_dict({"lt": {"bytes_per_element": 100, "rounds": 4}})
    assert cheap.fingerprint() != default.fingerprint()


def test_composites_cost_their_old_entries_at_desk_shapes():
    """The table holds only the four imported protocols, and at its
    defaults each composite costs what its own entry did: convert and trunc
    613 B in 5 rounds (lt + b2a), rowmax 1,839 B per element in 28 rounds
    over rows of 128; the desk formulas charge exactly those."""
    table = GadgetCostTable()
    assert sorted(table.entries) == ["b2a", "invsqrt", "lt", "rexp"]
    assert table.cost("convert", 1) == table.cost("trunc", 1) == (613, 5, False)
    assert table.cost("rowmax", 1, row_len=128) == (1839, 28, False)
    cfg = Config()
    assert costs.softmax_bytes(cfg, 128, 128, "max")["gadget:rowmax"] == 1839 * 128 * 128
    ln = costs.ln_bytes(cfg, 128, 768)
    assert ln["gadget:trunc"] == 613 * 128 * 768
    assert ln["gadget:convert"] == 613 * (128 * 768 + 128)
    assert costs.gelu_bytes(cfg, 128, 3072)["gadget:convert"] == 613 * 128 * 3072


def test_rowmax_rounds_follow_the_row_length():
    """A row maximum takes ceil(log2 d) levels of lt's 4 rounds."""
    table = GadgetCostTable()
    assert [table.cost("rowmax", 1, row_len=d)[1] for d in (1, 2, 8, 16, 128)] == \
        [0, 4, 12, 16, 28]
    with pytest.raises(ParamError, match="rowmax"):
        table.cost("rowmax", 1)


def test_unknown_gadget_name_raises():
    """A name the table does not price is an error, not a zero charge."""
    with pytest.raises(ParamError, match="rowmx"):
        GadgetCostTable().cost("rowmx", 4)


def test_lt_override_moves_the_composites(toy_cfg, pair_runner):
    """A config pricing lt at 100 B in 3 rounds charges convert and trunc
    121 B in 4 rounds and rowmax 363 B per element in 3 ceil(log2 d)
    rounds: a toy run's ledger and the formulas move together."""
    lt = {"bytes_per_element": 100, "rounds": 3}
    cfg = replace(toy_cfg, gadget_costs=GadgetCostTable.from_dict({"lt": lt}))
    assert cfg.gadget_costs.cost("convert", 1) == cfg.gadget_costs.cost("trunc", 1) == \
        (121, 4, False)
    cases = _cases(cfg)
    rounds = {}
    for name in ("softmax_max", "ln", "gelu"):
        _, fa, fb, formula = cases[name]
        _, _, rep, _ = pair_runner(cfg, fa, fb, seed=8, want_reports=True)
        for label, ph in rep.phases.items():
            sub = label.partition("/")[2]
            if sub.startswith("gadget:"):
                assert ph["bytes_a"] + ph["bytes_b"] == formula[sub], (name, sub)
                rounds[name, sub] = ph["rounds"]
    assert costs.softmax_bytes(cfg, 4, 10, "max")["gadget:rowmax"] == 363 * 40
    assert costs.ln_bytes(cfg, 8, 16)["gadget:trunc"] == 121 * 128
    assert costs.gelu_bytes(cfg, 4, 32)["gadget:convert"] == 121 * 128
    assert rounds["softmax_max", "gadget:rowmax"] == 4 * 3  # rows of 10
    assert rounds["ln", "gadget:trunc"] == rounds["gelu", "gadget:convert"] == 4
