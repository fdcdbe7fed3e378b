"""Named code families: degenerate tori, unit-group grids, and full affine grids.

A degenerate torus is a grid whose coordinate sets are multiplicative
subgroups {x^{v_i} : x in F_q*}.  Given target cardinalities the smallest
prime q with q = 1 (mod lcm) carries such a grid; the resulting code has the
same parameters as any cartesian code with those cardinalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .code import CodeParams, dimension_formula
from .errors import InvalidFieldError, OutOfRangeError, SearchExceededError
from .field import Field, factorize, is_prime, make_field, max_field_size
from .grid import Grid


@dataclass(frozen=True)
class DegenerateTorusSpec:
    """Grid of coordinate subgroups with |A_i| = degrees[i] = (q-1)/v[i]."""

    field: Field
    v: tuple[int, ...]
    degrees: tuple[int, ...]
    grid: Grid


def degenerate_torus_for_degrees(degrees, *, allow_prime_powers: bool = False) -> DegenerateTorusSpec:
    """Smallest admissible field carrying subgroups of the given orders.

    Searches primes q = 1 (mod lcm(degrees)) in increasing order; prime
    powers are admitted only with allow_prime_powers (off by default for
    reproducibility).  The field-size cap bounds the search.
    """
    degrees = tuple(int(x) for x in degrees)
    if not degrees or any(x < 2 for x in degrees):
        raise OutOfRangeError("every degree must be >= 2")
    m = math.lcm(*degrees)
    cap = max_field_size()
    q = m + 1
    while q <= cap:
        fld = None
        if is_prime(q):
            fld = make_field(q, 1)
        elif allow_prime_powers:
            fs = factorize(q)
            if len(fs) == 1:
                [(p, e)] = fs.items()
                fld = make_field(p, e)
        if fld is not None:  # the power images of v_i = (q-1)/x are the subgroups of order x
            return torus_spec_from_type(fld, [(q - 1) // x for x in degrees])
        q += m
    raise SearchExceededError(f"no admissible q = 1 (mod {m}) within the cap {cap}")


def torus_spec_from_type(field: Field, v) -> DegenerateTorusSpec:
    """Grid of the power images {x^{v_i} : x in F_q*}.

    Each image is the subgroup of order (q-1)/gcd(v_i, q-1).
    """
    v = tuple(int(x) for x in v)
    if not v or any(x < 1 for x in v):
        raise OutOfRangeError("exponents must be positive")
    orders = tuple((field.q - 1) // math.gcd(x, field.q - 1) for x in v)
    sets = [field.subgroup_of_order(o).elements for o in orders]
    return DegenerateTorusSpec(field=field, v=v, degrees=orders, grid=Grid(field, sets))


def _check_prime_power(q: int):
    if q < 2 or len(factorize(q)) != 1:
        raise InvalidFieldError(f"{q} is not a prime power")


def _uniform_params(c: int, n: int, d: int) -> CodeParams:
    """Parameters for the cards c^n (c >= 2).

    The distance uses the closed form in k = (d-1) // (c-1) directly, so the
    public functions below can serve as identity checks against the generic
    formula.
    """
    reg = n * (c - 1)
    if d >= reg:
        delta = 1
    else:
        k = (d - 1) // (c - 1)
        ell = d - k * (c - 1)
        delta = (c - ell) * c ** (n - k - 1)
    return CodeParams(
        length=c**n,
        dimension=dimension_formula((c,) * n, d),
        min_distance=delta,
        regularity=reg,
    )


def projective_torus_params(q: int, n: int, d: int) -> CodeParams:
    """Parameters when every coordinate set is the unit group F_q* (q >= 3)."""
    _check_prime_power(q)
    if q == 2:
        raise InvalidFieldError("the unit-group grid needs q >= 3")
    if n < 1 or d < 1:
        raise OutOfRangeError("need n >= 1 and d >= 1")
    return _uniform_params(q - 1, n, d)


def reed_muller_params(q: int, n: int, d: int) -> CodeParams:
    """Parameters when every coordinate set is all of F_q."""
    _check_prime_power(q)
    if n < 1 or d < 1:
        raise OutOfRangeError("need n >= 1 and d >= 1")
    return _uniform_params(q, n, d)
