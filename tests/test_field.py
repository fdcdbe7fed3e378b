"""Field arithmetic, moduli, primitive elements, subgroups, tables."""

import random

import numpy as np
import pytest

from cartcodes import (
    CartesianCode,
    Field,
    FieldMismatchError,
    Grid,
    InvalidFieldCapError,
    MultiPoly,
    NotADivisorError,
    NotPrimeError,
    TooLargeError,
    encode,
    evaluate_on_grid,
    extremal_codeword,
    make_field,
)
from cartcodes import poly
from cartcodes import field as field_module
from cartcodes.field import _smallest_irreducible, factorize, is_prime
from helpers import ref_add, ref_inv, ref_mul, ref_neg, ref_pow, ref_primitive_element


def _f3_quadratic_oracle():
    # smallest monic irreducible quadratic over F_3 by exhaustive root check,
    # scanned in encoding order c0 + 3*c1 + 9
    for m in range(9, 18):
        c0, c1 = m % 3, (m // 3) % 3
        if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            return (c0, c1, 1)
    raise AssertionError


def test_make_field_examples():
    assert make_field(2, 1).q == 2
    assert make_field(181).q == 181
    F9 = make_field(3, 2)
    assert F9.q == 9
    assert F9.modulus == _f3_quadratic_oracle()


def test_make_field_errors(monkeypatch):
    with pytest.raises(NotPrimeError):
        make_field(4)
    with pytest.raises(NotPrimeError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(TooLargeError):
        make_field(2, 21)
    monkeypatch.setenv("CARTESIAN_MAX_FIELD", "16")
    with pytest.raises(TooLargeError):
        make_field(17)
    assert make_field(13).q == 13


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
def test_make_field_rejects_malformed_cap(monkeypatch, raw):
    monkeypatch.setenv("CARTESIAN_MAX_FIELD", raw)
    with pytest.raises(InvalidFieldCapError) as exc:
        make_field(13)
    assert "CARTESIAN_MAX_FIELD" in str(exc.value) and repr(raw) in str(exc.value)


def test_make_field_deterministic():
    assert _smallest_irreducible(3, 2) == _smallest_irreducible(3, 2)
    assert make_field(2, 4).modulus == make_field(2, 4).modulus
    assert _smallest_irreducible(2, 4) == make_field(2, 4).modulus


def test_ops_examples():
    F5 = make_field(5)
    assert F5.inv(2) == 3
    F2 = make_field(2)
    assert F2.add(1, 1) == 0
    F9 = make_field(3, 2)
    for x in range(1, 9):
        assert F9.pow(x, 8) == 1  # Lagrange on the unit group


def test_ops_errors():
    F5 = make_field(5)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(FieldMismatchError):
        F5.add(7, 1)
    with pytest.raises(FieldMismatchError):
        F5.mul(1, -1)


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
def test_field_axioms_random(p, e):
    F = make_field(p, e)
    rng = random.Random(1000 * p + e)
    for _ in range(150):
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, b) == F.add(a, F.neg(b))
        if a:
            assert F.mul(a, F.inv(a)) == 1
            assert F.div(F.mul(a, b), a) == b


def test_elements_enumeration():
    F9 = make_field(3, 2)
    codes = list(F9.elements())
    assert len(codes) == 9 and len(set(codes)) == 9
    assert codes[0] == 0 and codes[1] == 1


def _order_by_powering(F, a):
    x, k = a, 1
    while x != 1:
        x = F.mul(x, a)
        k += 1
    return k


def test_primitive_element_examples():
    F5 = make_field(5)
    # oracle: direct powering of every unit
    orders = {a: _order_by_powering(F5, a) for a in range(1, 5)}
    assert orders == {1: 1, 2: 4, 3: 4, 4: 2}
    assert F5.primitive_element() == 2
    assert make_field(2).primitive_element() == 1
    F9 = make_field(3, 2)
    smallest = min(a for a in range(1, 9) if _order_by_powering(F9, a) == 8)
    assert F9.primitive_element() == smallest == 4


# every prime power up to 1024, the primes of the benchmark's construct commands
# (181, 259201, 120121) and the largest prime below the field-size cap
PRIMITIVE_FIELDS = [q for q in range(2, 1025) if len(factorize(q)) == 1] + [181, 259201, 120121, 1048573]


def test_primitive_element_matches_scalar_search():
    # batches of 1, 2, 4, ... candidates find the smallest primitive code, as
    # testing each candidate in turn does
    for q in PRIMITIVE_FIELDS:
        [(p, e)] = factorize(q).items()
        F = Field(p, e, _smallest_irreducible(p, e))  # a private instance, no cached tables
        assert F.primitive_element() == ref_primitive_element(F), q


def test_element_order_agrees_with_powering():
    for p, e in [(7, 1), (3, 2), (2, 3)]:
        F = make_field(p, e)
        for a in range(1, F.q):
            assert F.element_order(a) == _order_by_powering(F, a)


def test_subgroup_examples():
    F181 = make_field(181)
    assert F181.subgroup_of_order(2).elements == (1, 180)
    ninth = F181.subgroup_of_order(9)
    assert ninth.elements == tuple(sorted(x for x in range(1, 181) if F181.pow(x, 9) == 1))
    assert len(ninth.elements) == 9
    F5 = make_field(5)
    assert F5.subgroup_of_order(4).elements == (1, 2, 3, 4)
    with pytest.raises(NotADivisorError):
        F181.subgroup_of_order(7)


@pytest.mark.parametrize("p,e", [(13, 1), (3, 2), (2, 4)])
def test_subgroup_is_exact_power_filter(p, e):
    F = make_field(p, e)
    units = range(1, F.q)
    for k in range(1, F.q):
        if (F.q - 1) % k:
            continue
        sub = F.subgroup_of_order(k)
        assert sub.elements == tuple(sorted(x for x in units if F.pow(x, k) == 1))
        assert F.element_order(sub.generator) == k


@pytest.mark.parametrize(
    "p,e", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3)]
)
def test_tables_match_scalar_ops(p, e):
    """Every pair, vectorized and scalar, against polynomial arithmetic."""
    F = make_field(p, e)
    T = F.tables()
    a = np.arange(F.q)[:, None]
    b = np.arange(F.q)[None, :]
    add, sub, mul = T.add(a, b), T.sub(a, b), T.mul(a, b)
    for x in range(F.q):
        assert T.neg[x] == F.neg(x) == ref_neg(F, x)
        if x:
            assert F.inv(x) == ref_inv(F, x)
        for k in (0, 1, 2, F.q - 2, F.q + 3):
            assert F.pow(x, k) == ref_pow(F, x, k)
        for y in range(F.q):
            assert add[x, y] == F.add(x, y) == ref_add(F, x, y)
            assert sub[x, y] == F.sub(x, y) == ref_add(F, x, ref_neg(F, y))
            assert mul[x, y] == F.mul(x, y) == ref_mul(F, x, y)


# Odd primes add by modular sum in a dtype that holds 2(p - 1): uint8 codes are
# summed in uint8 up to F_127 and in uint16 from F_131 on (F_251's sums overflow
# uint8), F_257 has uint16 codes and F_65537 uint32 ones.
MODSUM_PRIMES = [3, 5, 7, 127, 131, 251, 257]
CAP_PRIME = max(n for n in range(2**20 - 99, 2**20) if is_prime(n))


def _check_modular_sum(F, a, b):
    """T.add and T.sub on the pairs (a[i], b[i]) against ref_add, for every input dtype.

    int64 and code-dtype arrays come back in their own dtype, Python ints as
    int64.
    """
    T = F.tables()
    code = np.min_scalar_type(F.q - 1)
    assert T.modsum is not None and T.modsum.itemsize >= code.itemsize
    plus = np.array([ref_add(F, x, y) for x, y in zip(a, b)], dtype=np.int64)
    minus = np.array([ref_add(F, x, ref_neg(F, y)) for x, y in zip(a, b)], dtype=np.int64)
    for dtype in (np.dtype(np.int64), code):
        x, y = np.array(a, dtype=dtype), np.array(b, dtype=dtype)
        for got, want in ((T.add(x, y), plus), (T.sub(x, y), minus)):
            assert got.dtype == dtype
            assert np.array_equal(got, want)
    for x, y, want_add, want_sub in zip(a, b, plus.tolist(), minus.tolist()):
        got_add, got_sub = T.add(x, y), T.sub(x, y)
        assert got_add.dtype == got_sub.dtype == np.int64
        assert got_add == want_add and got_sub == want_sub


@pytest.mark.parametrize("p", MODSUM_PRIMES)
def test_prime_field_modular_sum_every_pair(p):
    F = make_field(p)
    a, b = np.divmod(np.arange(p * p), p)
    _check_modular_sum(F, a.tolist(), b.tolist())


@pytest.mark.parametrize("p", [65521, 65537, CAP_PRIME])
def test_prime_field_modular_sum_sampled(p):
    # a private instance, so the tables go away with the test
    F = Field(p, 1, (0, 1))
    rng = random.Random(p)
    edges = [0, 1, p // 2, p - 2, p - 1]
    pairs = [(x, y) for x in edges for y in edges]
    pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(300)]
    a, b = zip(*pairs)
    _check_modular_sum(F, list(a), list(b))
    assert F.tables().modsum == np.dtype(np.uint32)


def _is_smallest_primitive(F, g):
    # reference: g has order q - 1 and no smaller code does
    primes = [r for r in range(2, F.q) if (F.q - 1) % r == 0 and is_prime(r)]

    def primitive(a):
        return all(ref_pow(F, a, (F.q - 1) // r) != 1 for r in primes)

    return primitive(g) and not any(primitive(a) for a in range(1, g))


@pytest.mark.parametrize("p,e", [(4099, 1), (2, 11), (3, 7)])
def test_tables_sampled_large_fields(p, e):
    F = make_field(p, e)
    T = F.tables()
    assert _is_smallest_primitive(F, F.primitive_element())
    rng = np.random.default_rng(F.q)
    a, b = rng.integers(0, F.q, size=(2, 400))
    a[:5] = 0
    b[5:10] = 0
    add, sub, mul = T.add(a, b), T.sub(a, b), T.mul(a, b)
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        assert add[i] == F.add(x, y) == ref_add(F, x, y)
        assert sub[i] == F.sub(x, y) == ref_add(F, x, ref_neg(F, y))
        assert mul[i] == F.mul(x, y) == ref_mul(F, x, y)
        assert T.neg[x] == ref_neg(F, x)
        if x:
            assert F.inv(x) == ref_inv(F, x)


@pytest.mark.parametrize("p,e", [(2, 20), (max(n for n in range(2**20 - 99, 2**20) if is_prime(n)), 1)])
def test_tables_build_at_the_cap(p, e):
    # a private instance, so the 28 MiB of tables go away with the test
    F = Field(p, e, make_field(p, e).modulus)
    T = F.tables()
    units = np.arange(1, F.q)
    assert np.array_equal(np.sort(T.exp[: F.q - 1]), units)  # g generates the units
    assert np.array_equal(T.exp[T.log[units]], units)
    assert not T.add(units, T.neg[units]).any()
    # tables of codes in the code dtype (uint32 above 2^16): exp repeats the units, then 0
    assert T.neg.dtype == T.exp.dtype == T.code == np.uint32
    assert np.array_equal(T.exp[F.q - 1 : T.sentinel], T.exp[: F.q - 2])
    assert not T.exp[T.sentinel :].any()
    rng = random.Random(F.q)
    for _ in range(20):
        x, y = rng.randrange(F.q), rng.randrange(F.q)
        assert T.add(x, y) == ref_add(F, x, y)
        assert T.mul(x, y) == ref_mul(F, x, y)
        if x:
            assert F.inv(x) == ref_inv(F, x)


def test_tables_spot_check_f181():
    F = make_field(181)
    T = F.tables()
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randrange(181), rng.randrange(181)
        assert T.add(a, b) == (a + b) % 181
        assert T.mul(a, b) == (a * b) % 181


def test_tables_above_former_limit():
    # table-backed arithmetic used to stop at q = 2048; the tables are O(q) now
    assert not hasattr(field_module, "TABLE_LIMIT")
    F = make_field(4099)
    T = F.tables()
    tables = [getattr(T, name) for name in ("log", "exp", "zech", "neg")]
    # int64 logs and uint16 codes take 18 bytes per element; an int64 exp would take 42
    assert sum(t.nbytes for t in tables if t is not None) <= 24 * F.q
    assert T.mul(4098, 4098) == 1 and T.add(4098, 1) == 0


@pytest.mark.parametrize(
    "p,e,code",
    [(2, 3, np.uint8), (7, 1, np.uint8), (257, 1, np.uint16), (3, 2, np.uint8), (3, 6, np.uint16)],
)
def test_code_dtype_in_code_dtype_out(p, e, code):
    # XOR (F_2^3), the modular sum (F_7, F_257) and the Zech add (F_9, F_3^6):
    # code-dtype codes in give code-dtype codes out, and every matrix, word and
    # copy the library makes of codes is in the same dtype
    F = make_field(p, e)
    T = F.tables()
    assert T.code == T.exp.dtype == code
    rng = np.random.default_rng(F.q)
    a, b = rng.integers(0, F.q, size=(2, 200)).astype(code)
    a[:5], b[5:10] = 0, 0
    for got in (T.mul(a, b), T.add(a, b), T.sub(a, b), T.exp[T.log[a]], T.neg[a]):
        assert got.dtype == code
    pairs = list(zip(a.tolist(), b.tolist()))
    assert T.mul(a, b).tolist() == [ref_mul(F, x, y) for x, y in pairs]
    assert T.add(a, b).tolist() == [ref_add(F, x, y) for x, y in pairs]

    grid = Grid(F, [(0, 1, 2, 3), (0, 1, F.q - 1)])
    cc = CartesianCode(grid, 2)
    G = cc.generator_matrix()
    assert G.array.dtype == poly.monomial_rows(grid, G.monomials).dtype == code
    assert encode(G, [i % F.q for i in range(1, G.rows + 1)]).dtype == code
    f, word = extremal_codeword(cc)
    assert word.dtype == evaluate_on_grid(f, grid).dtype == code
    assert evaluate_on_grid(MultiPoly.zero(F, 2), grid).dtype == code


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (131, 1), (4099, 1), (2, 3), (3, 2), (5, 2)])
def test_zech_table_only_for_odd_extension_fields(p, e):
    # characteristic 2 adds by XOR and an odd prime by modular sum: neither reads zech
    F = make_field(p, e)
    T = F.tables()
    assert (T.zech is not None) == (p != 2 and e > 1)
    if T.zech is not None:
        assert T.zech.size == 2 * T.sentinel + 1
    if e == 1:
        rng = np.random.default_rng(p)
        a, b = rng.integers(0, p, size=(2, 500))
        a[:3], b[3:6] = 0, p - 1
        assert np.array_equal(T.add(a, b), (a + b) % p)
        assert np.array_equal(T.sub(a, b), (a - b) % p)
