"""The machine-word modular kernel against Python-integer references."""

import math
import pathlib
import re

import numpy as np
import pytest

from exact_noise import crt_reconstruct_centered
from privblock import modarith as ma
from privblock.hecore.ntt import NttPlan
from privblock.params import (AUX_PRIMES, DEFAULT_Q_PRIMES, FixedPointConfig,
                              ParamError, toy_he_params)

P = 137438822401
RING = 1 << 37
P41 = 2199023255521  # largest 41-bit prime = 1 mod 16
P42 = 4398046510961  # largest 42-bit prime = 1 mod 16
Q_COLUMN = np.array(DEFAULT_Q_PRIMES, dtype=np.uint64).reshape(-1, 1)
MIXED_COLUMN = np.array([[DEFAULT_Q_PRIMES[0]], [P41]], dtype=np.uint64)


def _inputs(mod, size, rng):
    """Random representatives below ``mod`` led by the edge values."""
    half = mod >> 1
    edges = np.array([0, 1, half, half + 1, mod - 1], dtype=np.uint64)
    rand = rng.integers(0, mod, size=size - edges.size, dtype=np.uint64)
    return np.concatenate([edges, rand])


def _lift_ref(v, mod):
    return [int(x) - mod if int(x) > mod >> 1 else int(x) for x in v]


@pytest.mark.parametrize("mod", [P, np.uint64(P), np.array(P41, dtype=np.uint64),
                                 Q_COLUMN, MIXED_COLUMN])
def test_mod_equals_percent_on_words(mod, rng):
    """uint64 words, up to 2^64 - 1, by an int, a numpy scalar, a 0-d array
    or an (L, 1) column of moduli."""
    rows = np.shape(mod)[0] if np.ndim(mod) == 2 else 3
    x = rng.integers(0, 1 << 64, size=(rows, 2000), dtype=np.uint64)
    x[:, :3] = [0, (1 << 64) - 1, int(np.max(mod)) - 1]
    got = ma.mod(x, mod)
    assert got.dtype == np.uint64 and np.array_equal(got, x % mod)


def test_mod_of_signed_values_floors():
    """int64 by an int64 column: the result lies in [0, m), as Python's %."""
    col = Q_COLUMN.astype(np.int64)
    x = np.random.default_rng(3).integers(-(1 << 62), 1 << 62, size=(1, 500))
    x[0, :4] = [-1, 0, -int(col[0, 0]), -(1 << 63)]
    got = ma.mod(x, col)
    assert got.dtype == np.int64
    assert got.tolist() == [[int(v) % int(m) for v in x[0]] for m in col[:, 0]]


def test_mod_rejects_signed_by_unsigned():
    """numpy takes an int64 by uint64 quotient in float64, which is not exact."""
    x = np.array([-5, 7], dtype=np.int64)
    assert (x // Q_COLUMN).dtype == np.float64
    with pytest.raises(TypeError):
        ma.mod(x, Q_COLUMN)


@pytest.mark.parametrize("mod", [P, RING, P41, Q_COLUMN, MIXED_COLUMN])
def test_mulmod_matches_python(mod, rng):
    """An int modulus, or a column giving each row its own modulus."""
    rows_a, rows_b, want = [], [], []
    for m in np.ravel(mod).tolist():
        a = _inputs(m, 4000, rng)
        edges = a[:5]
        a = np.concatenate([np.repeat(edges, 5), a])
        b = np.concatenate([np.tile(edges, 5), rng.permutation(a[25:])])
        rows_a.append(a)
        rows_b.append(b)
        want.append([int(x) * int(y) % m for x, y in zip(a, b)])
    assert ma.mulmod(np.stack(rows_a), np.stack(rows_b), mod).tolist() == want


@pytest.mark.parametrize("mod", [DEFAULT_Q_PRIMES[0], (1 << 32) - 5, P, P41])
def test_mulmod_is_exact_up_to_its_limit(mod, rng):
    """The first factor need not be reduced: anything below
    ``mulmod_limit`` works, as the lazy NTT butterflies assume."""
    limit = ma.mulmod_limit(mod)
    assert limit > mod
    a = rng.integers(0, limit, size=2000, dtype=np.uint64)
    b = _inputs(mod, 2000, rng)
    a[:5] = limit - 1
    want = [int(x) * int(y) % mod for x, y in zip(a, b)]
    assert ma.mulmod(a, b, mod).tolist() == want


@pytest.mark.parametrize("primes", [DEFAULT_Q_PRIMES, AUX_PRIMES])
def test_crt_reconstruct_centered_matches_python(primes, rng):
    big = math.prod(primes)
    half = big >> 1  # the product is odd: the range is [-half, half]
    edges = [0, 1, -1, half, -half, half - 1, 1 - half]
    nbytes = big.bit_length() // 8 + 8
    values = edges + [int.from_bytes(rng.bytes(nbytes), "little") % big - half
                      for _ in range(500)]
    residues = [np.array([v % q for v in values], dtype=np.uint64) for q in primes]
    assert crt_reconstruct_centered(residues, primes).tolist() == values


@pytest.mark.parametrize("mod,shape", [(P, (9, 3072, 5)), (RING, (7, 768, 6)),
                                       (P41, (5, 3072, 4))])
def test_matmod_matches_object_matmul(mod, shape, rng):
    m, n, h = shape
    a = _inputs(mod, m * n, rng).reshape(m, n)
    b = _inputs(mod, n * h, rng).reshape(h, n).T.copy()
    a[1, :] = mod - 1          # one row and one column of the largest entries
    b[:, 1] = mod - 1
    want = (a.astype(object) @ b.astype(object)) % mod
    assert np.array_equal(ma.matmod(a, b, mod).astype(object), want)


@pytest.mark.parametrize("moduli", [AUX_PRIMES[:8], (P, P41)])
def test_matmod_modulus_column(moduli, rng):
    """Row k reduced mod moduli[k], broadcast over a stack of 30-bit limb
    residues: how ``rlwe`` extends limbs from one RNS basis to another."""
    m = np.stack([_inputs(mod, 6, rng) for mod in moduli])
    x = np.stack([_inputs(DEFAULT_Q_PRIMES[0], 6 * 300, rng).reshape(6, 300)
                  for _ in range(2)])
    col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    want = (m.astype(object) @ x.astype(object)) % col.astype(object)
    assert np.array_equal(ma.matmod(m, x, col).astype(object), want)
    # inner dimension 8 with every entry at its modulus - 1: one uint64
    # product for 30-bit moduli (the single-product edge), the split for wider
    top = int(col.max()) - 1
    edge = np.repeat(col - 1, 8, axis=1)
    assert (8 * top * top < 1 << 64) == (max(moduli).bit_length() <= 30)
    # entries that make 8 a_max b_max just reach 2^64: one product would wrap
    over = -(-(1 << 64) // (8 * top))
    assert 8 * top * (over - 1) < 1 << 64 <= 8 * top * over
    for b in (np.full((2, 8, 5), top, dtype=np.uint64),
              np.full((2, 8, 5), over, dtype=np.uint64)):
        want = (edge.astype(object) @ b.astype(object)) % col.astype(object)
        assert np.array_equal(ma.matmod(edge, b, col).astype(object), want)


@pytest.mark.parametrize("mod", [P, RING])
def test_signed_lift(mod, rng):
    v = _inputs(mod, 2000, rng)
    ref = _lift_ref(v, mod)
    got = ma.signed_lift(v, mod)
    assert got.dtype == np.int64 and got.tolist() == ref
    assert ma.signed_lift(v[:5], mod).tolist() == [0, 1, mod >> 1, (mod >> 1) + 1 - mod, -1]


@pytest.mark.parametrize("mod", [P, RING])
@pytest.mark.parametrize("shift", [0, 1, 12, 24])
def test_floor_and_round_shifts(mod, shift, rng):
    """round_shift floors (x + 2^(shift-1)) / 2^shift on the signed lift;
    shift 0 is the signed lift itself."""
    v = _inputs(mod, 2000, rng)
    lifted = _lift_ref(v, mod)
    half = (1 << shift) >> 1
    assert ma.round_shift(v, mod, shift).tolist() == [(x + half) >> shift for x in lifted]


@pytest.mark.parametrize("value_bits,shift", [(26, 12), (28, 12), (31, 15)])
def test_lift_shift_recovers_masked_values(value_bits, shift, rng):
    value = rng.integers(0, (1 << value_bits) + 1, size=2000, dtype=np.uint64)
    mask = rng.integers(0, P - (1 << value_bits), size=2000, dtype=np.uint64)
    value[:3] = [0, 1 << value_bits, 0]
    mask[:3] = [0, 0, P - (1 << value_bits) - 1]
    masked = [(int(x) - int(r)) % P for x, r in zip(value, mask)]
    want = [(int(x) - int(r)) >> shift for x, r in zip(value, mask)]
    assert ma.lift_shift(np.array(masked, dtype=np.uint64), P, value_bits,
                         shift).tolist() == want


def test_41_bit_prime_is_accepted_with_exact_transforms(rng):
    assert FixedPointConfig(k=43, s=12, p=P41).p == P41
    n = toy_he_params(n=8, p=P41).n
    plan = NttPlan(P41, n)
    a, b = _inputs(P41, n, rng), _inputs(P41, n, rng)[::-1].copy()
    got = plan.inverse(ma.mulmod(plan.forward(a), plan.forward(b), P41))
    want = [0] * n
    for i in range(n):
        for j in range(n):
            sign = 1 if i + j < n else -1
            want[(i + j) % n] += sign * int(a[i]) * int(b[j])
    assert got.tolist() == [w % P41 for w in want]


@pytest.mark.parametrize("make", [lambda p: FixedPointConfig(k=43, s=12, p=p),
                                  lambda p: toy_he_params(n=8, p=p)])
def test_42_bit_prime_is_rejected(make):
    with pytest.raises(ParamError):
        make(P42)


def test_object_dtype_only_in_big_integer_paths():
    """Share and ciphertext arithmetic and the CLI's reference check stay in
    machine words; no module of the program makes a Python-int array (the
    exact CRT reconstruction lives in the tests' ``exact_noise``)."""
    root = pathlib.Path(ma.__file__).parent
    pattern = re.compile(r"astype\(object\)|dtype=object")
    found = [f"{path.relative_to(root).as_posix()}:{i}"
             for path in sorted(root.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []


# one pass up to WALK_ABOVE values, blocks of BLOCK past it (the last one
# value long, then seven)
WALKED_SIZES = [ma.BLOCK - 1, ma.BLOCK, ma.BLOCK + 1, ma.WALK_ABOVE, ma.WALK_ABOVE + 1,
                3 * ma.BLOCK + 7]


@pytest.mark.parametrize("size", WALKED_SIZES)
def test_mod_and_mulmod_around_walked_lengths_match_python(size, rng):
    x = rng.integers(0, 1 << 64, size=size, dtype=np.uint64)
    x[:3] = [0, (1 << 64) - 1, P]
    assert ma.mod(x, P).tolist() == [int(v) % P for v in x]
    a, b = _inputs(P, size, rng), _inputs(P, size, rng)[::-1].copy()
    assert ma.mulmod(a, b, P).tolist() == [int(u) * int(v) % P for u, v in zip(a, b)]
    small = (1 << 32) - 5  # the one-product path
    a, b = _inputs(small, size, rng), _inputs(small, size, rng)
    assert ma.mulmod(a, b, small).tolist() == [int(u) * int(v) % small
                                              for u, v in zip(a, b)]


@pytest.mark.parametrize("shape", [(3, ma.BLOCK + 5), (ma.BLOCK // 4 + 1, 4, 3)])
def test_walked_kernels_keep_shapes(shape, rng):
    size = math.prod(shape)
    a = _inputs(P, size, rng).reshape(shape)
    b = rng.permutation(a.ravel()).reshape(shape)
    got = ma.mulmod(a, b, P)
    assert got.shape == shape
    assert got.ravel().tolist() == [int(u) * int(v) % P for u, v in zip(a.ravel(), b.ravel())]
    got = ma.addmod(a, b, P)
    assert got.shape == shape
    assert got.ravel().tolist() == [(int(u) + int(v)) % P for u, v in zip(a.ravel(), b.ravel())]
    # a transposed view is walked in its own (logical) order
    assert np.array_equal(ma.addmod(a.T, b.T, P), got.T)


def test_column_modulus_path_is_unchanged(rng):
    """An (L, 1) column of moduli over rows past one block in total: the
    flat pass, equal to numpy's % row by row."""
    x = rng.integers(0, 1 << 64, size=(Q_COLUMN.shape[0], 8192), dtype=np.uint64)
    assert np.array_equal(ma.mod(x, Q_COLUMN), x % Q_COLUMN)
    a = ma.mod(x, Q_COLUMN)
    b = ma.mod(x[::-1].copy(), Q_COLUMN)
    want = [[int(u) * int(v) % int(q) for u, v in zip(ra, rb)]
            for ra, rb, q in zip(a, b, Q_COLUMN[:, 0])]
    assert ma.mulmod(a, b, Q_COLUMN).tolist() == want


SCALARS = [0, 1, P - 1, P >> 1, (P >> 1) + 1, (1 << 26) - 1, (1 << 26) + 1, P - (1 << 26)]


@pytest.mark.parametrize("c", SCALARS)
@pytest.mark.parametrize("size", [8192, 3 * ma.BLOCK + 7])
def test_scalar_mulmod_equals_the_vector_path(c, size, rng):
    """An int second factor (one product where the centered c keeps c p
    below 2^64, the split product otherwise) equals the same factor in
    every slot, and Python's."""
    a = _inputs(P, size, rng)
    got = ma.mulmod(a, c, P)
    assert np.array_equal(got, ma.mulmod(a, np.full(size, c, dtype=np.uint64), P))
    assert np.array_equal(got, ma.mulmod(a, np.uint64(c), P))
    assert got[:5].tolist() == [int(v) * c % P for v in a[:5]]
    assert got.tolist() == [int(v) * c % P for v in a]


@pytest.mark.parametrize("size", WALKED_SIZES)
def test_walked_lifts_match_python(size, rng):
    v = _inputs(P, size, rng)
    lifted = _lift_ref(v, P)
    assert ma.signed_lift(v, P).tolist() == lifted
    assert ma.round_shift(v, P, 12).tolist() == [(x + 2048) >> 12 for x in lifted]
    value = rng.integers(0, (1 << 26) + 1, size=size, dtype=np.uint64)
    mask = rng.integers(0, P - (1 << 26), size=size, dtype=np.uint64)
    masked = np.array([(int(x) - int(r)) % P for x, r in zip(value, mask)], dtype=np.uint64)
    assert ma.lift_shift(masked, P, 26, 12).tolist() == [(int(x) - int(r)) >> 12
                                                         for x, r in zip(value, mask)]


@pytest.mark.parametrize("mod", [P, RING])
@pytest.mark.parametrize("size", [8192, 3 * ma.BLOCK + 7])
def test_addmod_and_submod_match_python(mod, size, rng):
    """Representatives below the modulus plus or minus an array of them, or
    any int (reduced first), by the conditional subtraction."""
    a = _inputs(mod, size, rng)
    b = rng.permutation(a)
    assert ma.addmod(a, b, mod).tolist() == [(int(x) + int(y)) % mod for x, y in zip(a, b)]
    assert ma.submod(a, b, mod).tolist() == [(int(x) - int(y)) % mod for x, y in zip(a, b)]
    for c in (0, 1, mod - 1, mod >> 1, mod, 3 * mod + 5, -7, np.uint64(mod - 2)):
        assert ma.addmod(a, c, mod).tolist() == [(int(x) + int(c)) % mod for x in a]
        assert ma.submod(a, c, mod).tolist() == [(int(x) - int(c)) % mod for x in a]
