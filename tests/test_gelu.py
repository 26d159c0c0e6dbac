import hashlib
import threading
from dataclasses import replace

import numpy as np
import pytest

from privblock import approx
from privblock import fixedpoint as fp
from privblock.hecore.clear import ClearBackend
from privblock.hecore.rlwe import RlweBackend
from privblock.protocols import ShapeMismatch, costs, pi_gelu
from privblock.params import GadgetCostTable
from privblock.protocols.gelu import INPUT_BOUND, _boundary_bits, compare_bits
from privblock.sharing import reconstruct, share

S = 12


def _run(cfg, pair_runner, x, seed=0, want=None, table=approx.GELU_TABLE):
    m, w = x.shape
    xe = fp.encode_int(x, cfg.fixedpoint, "field", S)
    rng = np.random.default_rng(seed)
    xa, xb = share(xe.ravel(), "field", cfg.fixedpoint, rng)
    out = pair_runner(cfg,
                      lambda ctx: pi_gelu(ctx, xa, (m, w), table=table),
                      lambda ctx: pi_gelu(ctx, xb, (m, w), table=table),
                      seed=seed, want_reports=(want == "reports"),
                      want_transcript=(want == "transcript"))
    if want:
        ra, rb, rep, extra = out
    else:
        (ra, rb), rep, extra = out, None, None
    y = fp.decode_int(reconstruct(ra.share, rb.share), cfg.fixedpoint,
                      "field", ra.scale).reshape(m, w)
    return y, rep, extra


def _oracle(x, table=approx.GELU_TABLE):
    xq = np.round(x * 2 ** S).astype(np.int64)
    return approx.eval_on_grid(table, xq.ravel(), S).reshape(x.shape)


def _phase_bytes(rep):
    return {k.split("/", 1)[1]: v["bytes_a"] + v["bytes_b"]
            for k, v in rep.phases.items() if k.startswith("gelu/")}


# GELU with a constant right tail, and a total tanh table: both tails const
CONST_TAIL_GELU = replace(approx.GELU_TABLE, right=("const", 1.0))
TOTAL_TANH = approx.fit_segments(
    approx.FitSpec(approx.tanh_exact, degree=4),
    [-4.60, -approx.TANH_X1, 0.0, approx.TANH_X1, 4.60],
    ("const", -1.0), ("const", 1.0), name="tanh_total")
# quadratic segments: no cube or quartic, so the power frames hold no vector
QUADRATIC_TANH = approx.fit_segments(
    approx.FitSpec(approx.tanh_exact, degree=2),
    [-4.60, -approx.TANH_X1, 0.0, approx.TANH_X1, 4.60],
    ("const", -1.0), ("const", 1.0), name="tanh_quadratic")


def test_published_spot_values(toy_cfg, pair_runner):
    x = np.array([[10.0, -10.0, 0.0, 1.0]])
    y, _, _ = _run(toy_cfg, pair_runner, x)
    ulp = 2.0 ** -S
    assert abs(y[0, 0] - (10.0 + 1e-5)) <= 2 * ulp
    assert abs(y[0, 1] - 1e-5) <= 2 * ulp
    assert abs(y[0, 2] - 0.001193207) <= 2 * ulp
    assert abs(y[0, 3] - approx.GELU_TABLE(np.round(2.0 ** S) / 2 ** S)) <= 2 * ulp


@pytest.mark.parametrize("shape,seed", [((4, 16), 1), ((8, 64), 2), ((32, 128), 3)])
def test_random_vs_piecewise_oracle(toy_cfg, pair_runner, shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-8, 8, size=shape)
    y, _, _ = _run(toy_cfg, pair_runner, x, seed=seed)
    assert (np.abs(y - _oracle(x)).max() * 2 ** S) <= 2.0


def test_boundary_points_covered(toy_cfg, pair_runner):
    bounds = approx.GELU_TABLE.boundaries
    x = np.array([[b for b in bounds] + [b - 2.0 ** -S for b in bounds]])
    y, _, _ = _run(toy_cfg, pair_runner, x)
    assert (np.abs(y - _oracle(x)).max() * 2 ** S) <= 2.0


@pytest.mark.parametrize("cfg_name", ["toy_cfg", "rlwe_toy_cfg"])
@pytest.mark.parametrize("table", [approx.GELU_TABLE, approx.TANH_TABLE],
                         ids=["gelu", "tanh"])
def test_each_boundary_and_its_neighbours(cfg_name, table, pair_runner, request):
    """Inputs exactly at each quantized boundary and one ulp either side
    land within 2 ulp of eval_on_grid.  Random inputs almost never hit a
    boundary, and a wrong selector difference shows only there."""
    cfg = request.getfixturevalue(cfg_name)
    bq = approx.quantized_boundaries(table, S)
    x = np.array([[(b + d) / 2 ** S for b in bq for d in (-1, 0, 1)]])
    y, _, _ = _run(cfg, pair_runner, x, seed=12, table=table)
    assert (np.abs(y - _oracle(x, table)).max() * 2 ** S) <= 2.0


def test_one_hot_selectors_exhaustive(toy_cfg, pair_runner):
    """The boundary bits never fall as the boundaries rise, so the selectors
    B forms from them (lt_0, lt_i - lt_(i-1), 1 - lt_last) are bits that sum
    to exactly 1 for points inside all five segments and at the four
    boundary encodings."""
    bq = approx.quantized_boundaries(approx.GELU_TABLE, S)
    probes = ([bq[0] - 5000, bq[0] - 1] + bq
              + [b + 1 for b in bq] + [0, 2500, -2500, bq[-1] + 9000])
    xs = np.asarray(np.asarray(probes, dtype=object) % 2 ** 37, dtype=np.uint64)
    rng = np.random.default_rng(4)
    xa, xb = share(xs, "ring", toy_cfg.fixedpoint, rng)

    def run(sh):
        def body(ctx):
            bits = _boundary_bits(ctx, sh, approx.GELU_TABLE, S)
            return ctx.field_share(np.concatenate(bits))
        return body

    bits_a, bits_b = pair_runner(toy_cfg, run(xa), run(xb))
    lt = reconstruct(bits_a, bits_b).astype(np.int64).reshape(len(bq), len(probes))
    assert np.array_equal(lt, np.array([[x < b for x in probes] for b in bq]))
    segs = [lt[0], *np.diff(lt, axis=0), 1 - lt[-1]]
    assert all(set(np.unique(seg)) <= {0, 1} for seg in segs)
    assert np.array_equal(np.sum(segs, axis=0), np.ones(len(probes)))
    # boundary encodings belong to the right-hand segment (half-open)
    for j, b in enumerate(bq):
        idx = probes.index(b)
        assert segs[j + 1][idx] == 1


def test_cost_formula_exact(toy_cfg, pair_runner):
    rng = np.random.default_rng(6)
    x = rng.uniform(-8, 8, size=(4, 32))
    _, rep, _ = _run(toy_cfg, pair_runner, x, seed=6, want="reports")
    assert _phase_bytes(rep) == costs.gelu_bytes(toy_cfg, 4, 32)


@pytest.mark.parametrize("table", [approx.GELU_TABLE, approx.TANH_TABLE],
                         ids=["gelu", "tanh"])
def test_compare_bits_cover_the_input_bound(toy_cfg, table):
    """At s = 12 both tables compare on 18 bits: INPUT_BOUND plus the
    largest boundary fits below 2^(m-1-s), and it would not at m - 1."""
    m = compare_bits(table, toy_cfg.fixedpoint)
    need = INPUT_BOUND + max(map(abs, table.boundaries))
    assert m == 18 and need < 2 ** (m - 1 - S) and not need < 2 ** (m - 2 - S)


@pytest.mark.parametrize("cfg_name", ["toy_cfg", "rlwe_toy_cfg"])
def test_exact_past_the_input_bound_and_counted_beyond(cfg_name, pair_runner, request):
    """The 18-bit comparisons keep gelu exact out to |x| = 26.5, past the
    declared INPUT_BOUND, and B counts no input; an input at |x| >= 27
    is outside its far boundary's range and is counted."""
    cfg = request.getfixturevalue(cfg_name)
    x = np.concatenate([np.linspace(-26.5, 26.5, 58),
                        [27.0, -27.0, 30.0, -31.5, 0.5, -0.5]]).reshape(2, 32)
    xe = fp.encode_int(x, cfg.fixedpoint, "field", S)
    xa, xb = share(xe.ravel(), "field", cfg.fixedpoint, np.random.default_rng(13))

    def party(sh):
        return lambda ctx: (pi_gelu(ctx, sh, (2, 32)), ctx.provider.lt_out_of_range)

    (ra, count_a), (rb, count_b) = pair_runner(cfg, party(xa), party(xb), seed=13)
    y = fp.decode_int(reconstruct(ra.share, rb.share), cfg.fixedpoint,
                      "field", ra.scale).reshape(x.shape)
    inside = np.abs(x) <= 26.5
    assert (np.abs(y - _oracle(x))[inside].max() * 2 ** S) <= 2.0
    assert (count_a, count_b) == (0, 4)


def test_out_of_range_bits_are_the_18_bit_sign_bits(toy_cfg, pair_runner):
    """Inputs straddling the exact region get from ``_boundary_bits`` the
    sign bits of (x - c) mod 2^18: [x < c] inside |x - c| < 2^17, the
    wrong bit an 18-bit comparison gives outside it."""
    bq = approx.quantized_boundaries(approx.GELU_TABLE, S)
    probes = np.array([-131_072 + bq[-1], -131_073 + bq[-1], -110_000, 110_000,
                       131_071 + bq[0], 131_072 + bq[0], 125_000, -125_000])
    xa, xb = share(probes % toy_cfg.fixedpoint.p, "field", toy_cfg.fixedpoint,
                   np.random.default_rng(14))

    def run(sh):
        def body(ctx):
            bits = _boundary_bits(ctx, sh, approx.GELU_TABLE, S)
            return ctx.field_share(np.concatenate(bits)), ctx.provider.lt_out_of_range
        return body

    (bits_a, _), (bits_b, count) = pair_runner(toy_cfg, run(xa), run(xb))
    got = reconstruct(bits_a, bits_b).astype(np.int64).reshape(len(bq), len(probes))
    d = probes[None, :] - np.array(bq)[:, None]
    assert np.array_equal(got, (d % 2 ** 18) >> 17)
    wrong = got != (d < 0)
    assert wrong.any() and np.array_equal(wrong, (d < -2 ** 17) | (d >= 2 ** 17))
    assert count == int(wrong.any(axis=0).sum()) == 4


def test_lt_override_moves_the_narrow_charge(toy_cfg, pair_runner):
    """A config pricing lt at b B moves gelu's comparison charge to
    ceil(18 b / 37) B per comparison, and the formula follows the run."""
    costs_ = GadgetCostTable.from_dict({"lt": {"bytes_per_element": 100, "rounds": 4}})
    cfg = replace(toy_cfg, gadget_costs=costs_)
    x = np.random.default_rng(15).uniform(-8, 8, size=(2, 32))
    _, rep, _ = _run(cfg, pair_runner, x, seed=15, want="reports")
    got = _phase_bytes(rep)
    assert got["gadget:lt"] == 49 * len(approx.GELU_TABLE.boundaries) * 64
    assert got == costs.gelu_bytes(cfg, 2, 32)


@pytest.mark.parametrize("table", [CONST_TAIL_GELU, TOTAL_TANH, approx.TANH_TABLE,
                                   QUADRATIC_TANH],
                         ids=["const_tail_gelu", "total_tanh", "shipped_tanh",
                              "quadratic_tanh"])
def test_other_tables_vs_oracle_and_bytes(toy_cfg, pair_runner, table):
    """Selectors, tails and bytes follow the table: a constant right tail is
    that constant, and the count of comparisons and powers is the table's."""
    rng = np.random.default_rng(10)
    x = np.concatenate([[6.0, 7.5, -7.5, 4.6, -4.6, 0.0],
                        rng.uniform(-8, 8, size=58)]).reshape(2, 32)
    y, rep, _ = _run(toy_cfg, pair_runner, x, seed=10, want="reports", table=table)
    assert (np.abs(y - _oracle(x, table)).max() * 2 ** S) <= 2.0
    assert _phase_bytes(rep) == costs.gelu_bytes(toy_cfg, 2, 32, table)


@pytest.mark.parametrize("table", [TOTAL_TANH, approx.TANH_TABLE],
                         ids=["total_tanh", "shipped_tanh"])
def test_total_tanh_on_rlwe(rlwe_toy_cfg, pair_runner, table):
    x = np.random.default_rng(11).uniform(-6, 6, size=(2, 16))
    y, rep, _ = _run(rlwe_toy_cfg, pair_runner, x, seed=11, want="reports",
                     table=table)
    assert (np.abs(y - _oracle(x, table)).max() * 2 ** S) <= 2.0
    assert _phase_bytes(rep) == costs.gelu_bytes(rlwe_toy_cfg, 2, 16, table)


def test_transcript_shape(toy_cfg, pair_runner):
    rng = np.random.default_rng(7)
    x = rng.uniform(-8, 8, size=(2, 8))
    _, _, tr = _run(toy_cfg, pair_runner, x, seed=7, want="transcript")
    labels = [(k, d, l) for k, d, l in tr if l.startswith("gelu/")]
    assert labels == [
        ("frame", "A", "gelu/encrypt_input"),
        ("frame", "B", "gelu/input_and_squares"),
        ("charge", "AB", "gelu/gadget:convert"),
        ("charge", "AB", "gelu/gadget:lt"),
        ("charge", "AB", "gelu/gadget:b2a"),
        ("frame", "A", "gelu/selector_and_square_shares"),
        ("frame", "B", "gelu/masked_powers"),
        ("frame", "A", "gelu/power_shares"),
        ("frame", "B", "gelu/result"),
    ]


def test_share_length_checked_on_both_parties(toy_cfg, pair_runner):
    """A 17-value share against shape (2, 8) is rejected by both parties
    before any frame, not by B alone after A has sent its input."""
    xa, xb = share(np.zeros(17, dtype=np.uint64), "field", toy_cfg.fixedpoint,
                   np.random.default_rng(8))

    def party(x_share):
        def run(ctx):
            try:
                pi_gelu(ctx, x_share, (2, 8))
            except Exception as e:  # noqa: BLE001 - compared below
                ctx.session.close()
                return type(e)
        return run

    ra, rb, _, tr = pair_runner(toy_cfg, party(xa), party(xb), want_transcript=True)
    assert ra is rb is ShapeMismatch
    assert not [l for _, _, l in tr if l.startswith("gelu/")]


def test_rejects_high_degree_table(toy_cfg, pair_runner):
    rng = np.random.default_rng(8)
    xe = np.zeros(16, dtype=np.uint64)
    xa, xb = share(xe, "field", toy_cfg.fixedpoint, rng)
    with pytest.raises(ShapeMismatch):
        pair_runner(toy_cfg,
                    lambda ctx: pi_gelu(ctx, xa, (2, 8), table=approx.MISH_TABLE),
                    lambda ctx: pi_gelu(ctx, xb, (2, 8), table=approx.MISH_TABLE))


def test_rejects_symmetric_table(toy_cfg, pair_runner):
    """The unfolded sigmoid's outer segments have half-width 2.58 > 2."""
    rng = np.random.default_rng(8)
    xe = np.zeros(16, dtype=np.uint64)
    xa, xb = share(xe, "field", toy_cfg.fixedpoint, rng)
    with pytest.raises(ShapeMismatch):
        pair_runner(toy_cfg,
                    lambda ctx: pi_gelu(ctx, xa, (2, 8), table=approx.SIGMOID_TABLE),
                    lambda ctx: pi_gelu(ctx, xb, (2, 8), table=approx.SIGMOID_TABLE))


def test_determinism(toy_cfg, pair_runner):
    rng = np.random.default_rng(9)
    x = rng.uniform(-8, 8, size=(2, 16))

    def run():
        y, rep, _ = _run(toy_cfg, pair_runner, x, seed=31, want="reports")
        return y.tobytes(), rep.to_dict()

    assert run() == run()


# SHA-256 of A's then B's output share payload (uint64, little-endian) of
# one 8x40 pi_gelu at seed 21 and N=256 (two blocks), per table; the two
# backends give the same shares
OUTPUT_DIGESTS = {
    "gelu": "6916bd4cc472897c97f06ab89ce4ff760d6f3725f0b0290f96e886f81041ae1d",
    "tanh": "3749f761e086b5d35271a8953fd5b044920c626348dc239c3057518077d80ed5",
}


@pytest.mark.parametrize("cfg_name", ["toy_cfg", "rlwe_toy_cfg"])
@pytest.mark.parametrize("table", [approx.GELU_TABLE, approx.TANH_TABLE],
                         ids=["gelu", "tanh"])
def test_one_ct_product_per_block_and_pinned_shares(cfg_name, table, pair_runner,
                                                    request):
    """The selector-weighted sum is gelu's only ciphertext*ciphertext
    product: one ``mul_ct_sum`` per block, since its square, cubes and
    quartics are cross terms.  Both parties'
    output shares hash to pinned digests, so the cross terms decrypt to
    the same values mod p as the ct*ct products they replaced, with masks
    drawn in the same order."""
    cfg = request.getfixturevalue(cfg_name)
    backend = {"clear": ClearBackend, "rlwe": RlweBackend}[cfg.he_backend]
    calls = {"mul_ct_sum": 0}
    lock = threading.Lock()  # both parties' threads count

    def counted(name, op):
        def run(self, *args):
            with lock:
                calls[name] += 1
            return op(self, *args)
        return run

    rng = np.random.default_rng(21)
    x = rng.uniform(-8, 8, size=(8, 40))
    xe = fp.encode_int(x, cfg.fixedpoint, "field", S)
    xa, xb = share(xe.ravel(), "field", cfg.fixedpoint, rng)
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(backend, name, counted(name, getattr(backend, name)))
        ra, rb = pair_runner(cfg, lambda ctx: pi_gelu(ctx, xa, (8, 40), table=table),
                             lambda ctx: pi_gelu(ctx, xb, (8, 40), table=table), seed=21)
    assert calls == {"mul_ct_sum": 2}, calls
    payloads = b"".join(r.share.payload.astype("<u8").tobytes() for r in (ra, rb))
    assert (hashlib.sha256(payloads).hexdigest()
            == OUTPUT_DIGESTS[table.name])
