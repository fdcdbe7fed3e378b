"""Exact arithmetic in finite fields F_{p^e}.

Elements are plain integers in [0, q): the base-p digits of a code are its
coefficients over the polynomial basis, so 0 is the additive and 1 the
multiplicative identity, and for e = 1 arithmetic is just integers mod p.
Integer codes keep matrices and CLI output bit-reproducible.

All arithmetic on codes, scalar or vectorized, goes through one
representation: the O(q) log/exp tables of FieldTables, plus a Zech table
for odd extension fields only, built once per field on first use.  They are
built from multiplication matrices, the F_p-linear maps x -> c*x on
coefficient rows; stacks of the same matrices, raised to powers by
square-and-multiply, test a batch of candidates for the primitive element
at once and give the generators of the cyclic subgroups, so neither needs
the tables.
Addition reads the tables only over odd extension fields: in characteristic
2 it is the XOR of the codes, and over an odd prime their sum mod p.  A
field with q^2 <= PAIR_TABLE_ENTRIES also gets q x q tables, built once:
the products, the negated inverses and, for odd p, the sums, which the
rank elimination's table steps read and an odd extension field adds
through.  The tables fix one dtype for codes, FieldTables.code, the
narrowest unsigned dtype that holds q - 1, and every vectorized operation
on codes in it returns codes in it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    FieldMismatchError,
    InvalidFieldCapError,
    NotADivisorError,
    NotPrimeError,
    TooLargeError,
)

DEFAULT_MAX_FIELD = 1 << 20
ENV_MAX_FIELD = "CARTESIAN_MAX_FIELD"

# Codes per step when multiplying a code array by a constant; bounds the
# (block, e) digit temporaries.
_BLOCK = 1 << 14

# The largest q x q tables FieldTables builds, in entries: fields with q <= 181.
PAIR_TABLE_ENTRIES = 1 << 15

# The unsigned integer dtype of each width, for reading nonnegative sums as unsigned.
_UNSIGNED = {np.dtype(t).itemsize: np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)}


def max_field_size() -> int:
    """Field-size cap; override with the CARTESIAN_MAX_FIELD environment variable."""
    raw = os.environ.get(ENV_MAX_FIELD)
    if not raw:
        return DEFAULT_MAX_FIELD
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise InvalidFieldCapError(f"{ENV_MAX_FIELD} must be a positive integer, got {raw!r}")
    return cap


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fields here are small."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _digits(m: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(m % p)
        m //= p
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    # remainder of num by a monic den over F_p, coefficients little-endian
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd]


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over F_p with the smallest integer encoding.

    Candidates are scanned in encoding order and rejected by trial division
    against every monic polynomial of degree <= e/2.
    """
    if e == 1:
        return (0, 1)
    for m in range(p**e, 2 * p**e):
        cand = _digits(m, p, e + 1)
        reducible = False
        for deg in range(1, e // 2 + 1):
            for nn in range(p**deg, 2 * p**deg):
                div = _digits(nn, p, deg + 1)
                if not any(_poly_rem(cand, div, p)):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(cand)
    raise AssertionError("no irreducible polynomial of degree %d over F_%d" % (e, p))


@dataclass(frozen=True)
class Subgroup:
    """Cyclic subgroup of the unit group; elements sorted by code."""

    order: int
    generator: int
    elements: tuple[int, ...]


class FieldTables:
    """O(q) lookup tables and vectorized arithmetic on element codes.

    With g the primitive element and N = q - 1, log[a] is the discrete
    logarithm of a unit a, and log[0] is the sentinel Z = 2N - 1, which no
    sum of two unit logarithms reaches.  exp[k] = g^(k mod N) for k < Z and 0
    from Z on (the zero tail), so exp[log[a] + log[b]] = a*b for every pair,
    0 included.  zech[d + Z] is the Zech logarithm log(1 + g^d) for |d| < N
    (Z where 1 + g^d = 0), extended so that

        a + b = exp[log[a] + zech[log[b] - log[a] + Z]]

    holds when a or b is 0 too: d in [N, Z] (b = 0) maps to 0 and d in
    [-Z, -N] (a = 0) maps to d itself.  Only odd extension fields add
    through zech, and only they build it; elsewhere zech is None.  Where
    q^2 <= PAIR_TABLE_ENTRIES, prod[a, b] = a * b and neginv[a] = -1/a
    (entry 0 unused), and for odd p the flat q x q table plus holds a + b at
    q * b + a, an offset in offset, the narrowest unsigned dtype that holds
    q^2 - 1; elsewhere they are None.  Such an odd extension field adds by
    one gather from plus instead of through zech.  In characteristic 2
    addition is the XOR of codes.  For an odd prime q = p
    the codes are the residues, and a + b is the modular sum
    (a + b) - p * [a + b >= p], taken in modsum, the least dtype that holds
    2(p - 1).  The operations broadcast like numpy ufuncs and take scalars
    as well as arrays.  log and zech hold int64 logarithms.  exp and neg
    hold codes in code, the narrowest unsigned dtype that holds q - 1 (uint8
    up to q = 256), and so does plus, so mul and the table and zech adds
    return codes in code whatever their inputs' dtypes; XOR and
    the modular sum return the dtype that numpy promotes their inputs'
    dtypes to (a Python int counts as int64).  So every operation on codes
    in code returns codes in code.
    """

    __slots__ = ("q", "p", "sentinel", "code", "log", "exp", "zech", "neg", "modsum",
                 "prod", "neginv", "plus", "offset")

    def __init__(self, field: "Field"):
        q, p = field.q, field.p
        n = q - 1
        z = 2 * n - 1
        powers = field._powers(field.primitive_element(), n)
        log = np.empty(q, dtype=np.int64)
        log[powers] = np.arange(n, dtype=np.int64)
        log[0] = z
        code = np.min_scalar_type(n)  # codes are below q, so narrowing them is exact
        exp = np.zeros(2 * z + 1, dtype=code)
        exp[:n] = powers
        exp[n:z] = powers[: n - 1]
        zech = None  # characteristic 2 adds by XOR, an odd prime by modular sum
        if p != 2 and q != p:
            # adding 1 raises the constant coefficient, the lowest digit
            low = powers % p
            zech_units = log[powers - low + (low + 1) % p]
            zech = np.zeros(2 * z + 1, dtype=np.int64)
            zech[:n] = np.arange(-z, -n + 1)
            zech[n:z] = zech_units[1:]
            zech[z : z + n] = zech_units
        self.q, self.p, self.sentinel, self.code = q, p, z, code
        self.log, self.exp, self.zech = log, exp, zech
        shift = 0 if p == 2 else n // 2  # log(-1): -1 = g^(N/2) for odd p
        self.neg = exp[log + shift]
        self.modsum = np.min_scalar_type(2 * n) if p != 2 and q == p else None
        self.prod = self.neginv = self.plus = self.offset = None
        if q * q <= PAIR_TABLE_ENTRIES:
            self.prod = exp[log[:, None] + log]
            self.neginv = exp[(shift - log) % n]
            if p != 2:  # built by the modular sum or the Zech add, before add reads it
                codes = np.arange(q, dtype=code)
                self.plus = self.add(codes, codes[:, None]).ravel()
                self.offset = np.min_scalar_type(q * q - 1)

    def mul(self, a, b):
        log = self.log
        return self.exp[log[a] + log[b]]

    def add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.modsum is not None:  # an odd prime: the codes are the residues mod p
            if type(a) is int and type(b) is int:  # two Python ints, as int64 codes
                s = a + b
                return np.int64(s - self.p if s >= self.p else s)
            a, b = np.asarray(a), np.asarray(b)
            code = np.promote_types(a.dtype, b.dtype)
            wide = np.promote_types(code, self.modsum)
            # codes are >= 0, so the sum read as unsigned is the same number, and
            # sum - p wraps above the sum exactly when sum < p
            s = np.add(a, b, dtype=wide).view(_UNSIGNED[wide.itemsize])
            r = np.subtract(s, self.p, dtype=s.dtype)
            r = np.minimum(s, r, out=r if r.ndim else None)
            return r.view(wide).astype(code, copy=False)
        if self.plus is not None:  # an odd extension field with a q x q sum table
            if type(a) is int and type(b) is int:
                return self.plus[self.q * b + a]
            a, b = np.asarray(a), np.asarray(b)
            wide = np.promote_types(np.promote_types(a.dtype, b.dtype), self.offset)
            return self.plus.take(np.add(np.multiply(b, self.q, dtype=wide), a, dtype=wide))
        return self._zech_add(a, b)

    def _zech_add(self, a, b):
        """a + b over an odd extension field, through zech."""
        # take, not []: numpy gathers by a narrow index array several times slower,
        # but [] reads one entry at a Python int several times faster
        get = self.log.__getitem__ if type(a) is int and type(b) is int else self.log.take
        la = get(a)
        k = get(b) - la
        k += self.sentinel
        k = self.zech[k]
        k += la
        return self.exp[k]

    def sub(self, a, b):
        return self.add(a, self.neg[b])


class Field:
    """The finite field F_{p^e} with integer-coded elements."""

    __slots__ = ("p", "e", "q", "modulus", "_weights", "_tables", "_primitive")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = tuple(modulus)
        self._weights = p ** np.arange(e, dtype=np.int64)
        self._tables = None
        self._primitive = None

    def __repr__(self):
        return f"Field({self.p})" if self.e == 1 else f"Field({self.p}^{self.e})"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    # -- element helpers ----------------------------------------------------

    def validate(self, a) -> int:
        if isinstance(a, (int, np.integer)) and 0 <= a < self.q:
            return int(a)
        raise FieldMismatchError(f"{a!r} is not an element code of {self!r}")

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic: lookups into the tables ---------------------------------

    def tables(self) -> FieldTables:
        """The O(q) arithmetic tables, built on first use."""
        if self._tables is None:
            self._tables = FieldTables(self)
        return self._tables

    def add(self, a: int, b: int) -> int:
        return int(self.tables().add(self.validate(a), self.validate(b)))

    def neg(self, a: int) -> int:
        return int(self.tables().neg[self.validate(a)])

    def sub(self, a: int, b: int) -> int:
        return int(self.tables().sub(self.validate(a), self.validate(b)))

    def mul(self, a: int, b: int) -> int:
        return int(self.tables().mul(self.validate(a), self.validate(b)))

    def pow(self, a: int, k: int) -> int:
        """a^k; negative k inverts first, and 0^0 = 1."""
        a = self.validate(a)
        if k < 0:
            return self.pow(self.inv(a), -k)
        if a == 0:
            return int(k == 0)
        T = self.tables()
        return int(T.exp[int(T.log[a]) * k % (self.q - 1)])

    def inv(self, a: int) -> int:
        a = self.validate(a)
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self!r}")
        T = self.tables()
        return int(T.exp[-T.log[a] % (self.q - 1)])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- multiplication matrices: build the tables, find g and subgroups -----

    def _digits(self, codes) -> np.ndarray:
        """Base-p digits of codes, constant term first, along a new last axis."""
        return np.asarray(codes, dtype=np.int64)[..., None] // self._weights % self.p

    def _mul_matrix(self, c) -> np.ndarray:
        """The e x e matrix M over F_p with digits(a*c) = digits(a) @ M mod p.

        For an array of codes c, one matrix per code, stacked along its axes.
        Row j holds the digits of c * x^j: the previous row shifted up one
        power, with x^e rewritten through the modulus.  The entries are
        float64 so that products run through BLAS; every intermediate is an
        integer below e * p^2 <= 2^40, hence exact.
        """
        p = self.p
        top = -np.array(self.modulus[:-1], dtype=np.int64)  # x^e in the basis
        rows = [self._digits(c)]
        for _ in range(1, self.e):
            prev = rows[-1]
            shifted = np.concatenate((np.zeros_like(prev[..., :1]), prev[..., :-1]), axis=-1)
            rows.append((shifted + prev[..., -1:] * top) % p)
        return np.stack(rows, axis=-2).astype(np.float64)

    def _times(self, codes, M: np.ndarray) -> np.ndarray:
        """Codes of codes * c, for M = _mul_matrix(c)."""
        digits = (self._digits(codes) @ M).astype(np.int64)
        digits %= self.p
        return digits @ self._weights

    def _power_codes(self, codes, exponents) -> np.ndarray:
        """[i, b] = the code of codes[b]^exponents[i], every exponent >= 0.

        Square-and-multiply on the stack of the codes' multiplication
        matrices: the digits of 1 are multiplied by M^(2^j) for each bit j
        of an exponent, and the squarings are shared by all of them.
        """
        p = self.p
        M = self._mul_matrix(np.asarray(codes, dtype=np.int64))  # (B, e, e)
        ks = list(exponents)
        digits = np.zeros((len(ks),) + M.shape[:-1])  # (K, B, e): the digits of 1
        digits[..., 0] = 1
        while True:
            for i, k in enumerate(ks):
                if k & 1:
                    digits[i] = np.matmul(digits[i][:, None, :], M)[:, 0] % p
            ks = [k >> 1 for k in ks]
            if not any(ks):
                return digits.astype(np.int64) @ self._weights
            M = M @ M % p

    def _powers(self, c: int, count: int) -> np.ndarray:
        """Codes of c^0, ..., c^(count-1): block [n, 2n) is block [0, n) times c^n."""
        out = np.empty(count, dtype=np.int64)
        out[0] = 1
        M = self._mul_matrix(c)  # multiplication by c^n
        n = 1
        while n < count:
            m = min(n, count - n)
            for s in range(0, m, _BLOCK):
                t = min(s + _BLOCK, m)
                out[n + s : n + t] = self._times(out[s:t], M)
            M = M @ M % self.p
            n += m
        return out

    # -- multiplicative structure ----------------------------------------------

    def element_order(self, a: int) -> int:
        a = self.validate(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        n = self.q - 1
        return n // math.gcd(int(self.tables().log[a]), n)

    def primitive_element(self) -> int:
        """Smallest code whose multiplicative order is q - 1.

        c is primitive when c^((q-1)/r) != 1 for every prime r dividing
        q - 1.  The candidates from 2 on (1 is primitive only in F_2) are
        tested in batches of 1, 2, 4, ... codes, each batch by one
        _power_codes, and the first batch with a primitive code holds the
        smallest one.
        """
        if self._primitive is None:
            n = self.q - 1
            ks = [n // r for r in factorize(n)]
            start, size = 2, 1
            self._primitive = 1 if n == 1 else None
            while self._primitive is None:
                cand = np.arange(start, min(start + size, self.q))
                ok = (self._power_codes(cand, ks) != 1).all(axis=0)
                if ok.any():
                    self._primitive = int(cand[ok.argmax()])
                start, size = start + size, 2 * size
        return self._primitive

    def subgroup_of_order(self, k: int) -> Subgroup:
        """The unique cyclic subgroup of order k; k must divide q - 1."""
        if k < 1 or (self.q - 1) % k != 0:
            raise NotADivisorError(f"{k} does not divide q - 1 = {self.q - 1}")
        g = int(self._power_codes([self.primitive_element()], [(self.q - 1) // k])[0, 0])
        elems = self._powers(g, k).tolist()
        return Subgroup(order=k, generator=g, elements=tuple(sorted(elems)))


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def make_field(p: int, e: int = 1) -> Field:
    """Construct F_{p^e} with the canonical smallest-encoding modulus.

    Deterministic: repeated calls yield identical moduli (and the same
    cached instance).
    """
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    q = p**e
    cap = max_field_size()
    if q > cap:
        raise TooLargeError(f"q = {q} exceeds the field-size cap {cap}")
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, e, _smallest_irreducible(p, e))
    return _FIELD_CACHE[key]


def field_for_order(q: int) -> Field:
    """F_q for a prime-power q, factored automatically."""
    if q < 2:
        raise NotPrimeError(f"{q} is not a prime power")
    fs = factorize(q)
    if len(fs) != 1:
        raise NotPrimeError(f"{q} is not a prime power")
    [(p, e)] = fs.items()
    return make_field(p, e)
