"""GF(q) for prime powers q, as a pure-Python add table and mul rows, and
where a Reed-Solomon packing exists.

Both routes of the pipeline evaluate polynomials through these tables: the
plain route of `fpc.construct` reads them as they are, and `rs_packing`
converts the add table and the mul rows it reads to numpy arrays. So the
field loads no numpy.
"""

from __future__ import annotations

import itertools
from array import array

# GF refuses prime powers of order above this; primes pass at any order. No
# measurement chose 512.
_GF_TABLE_CAP = 512


class NotPrimePowerError(ValueError):
    pass


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrimePowerError(f"{q} is not a prime power")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotPrimePowerError(f"{q} is not a prime power")
    return p, k


def rs_applies(l: int, q: int) -> bool:
    """Whether `rs_packing` builds words of length l over q symbols: q is a
    prime power of at least l, and a prime if above `_GF_TABLE_CAP`."""
    try:
        _p, k = _prime_power(q)
    except NotPrimePowerError:
        return False
    return q >= l and (k == 1 or q <= _GF_TABLE_CAP)


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """The remainder of num / den over GF(p), lowest coefficient first, with
    no leading zeros (zero is [0])."""
    num = num[:]
    deg_d = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for shift in range(len(num) - deg_d - 1, -1, -1):
        coef = num[shift + deg_d] * inv_lead % p
        if coef:
            for j, dj in enumerate(den):
                num[shift + j] = (num[shift + j] - coef * dj) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(f: list[int], p: int) -> bool:
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            if _poly_mod(f, g, p) == [0]:
                return False
    return True


class GF:
    """GF(q) as an add table over the elements 0..q-1, add[a][b] = a + b,
    and the rows of its mul table, mul_row(a)[b] = a·b.

    Element i is the polynomial over GF(p) whose coefficients are the base-p
    digits of i, lowest digit first. Products are reduced modulo the first
    monic irreducible of degree k in `itertools.product` order. A prime q is
    the case k = 1, whose modulus is x, so its tables are arithmetic mod p.

    `add` is built with the field, as q rows of `array("I")`, so that
    `rs_packing` reads it as one buffer. Sums add digit by digit: row a is a
    run of p sums per element of the row of a's higher digits, each run
    fixed by a's lowest digit. `mul_row` builds one row of products at a
    time, as a list, since the packings read only the rows at their l
    evaluation points. Products go through the powers of a primitive
    element, so each row is one slice of those powers read at the other
    factor's logarithm.
    """

    def __init__(self, q: int):
        self.q = q
        self.p, self.k = p, k = _prime_power(q)
        if k > 1 and q > _GF_TABLE_CAP:
            raise ValueError(
                f"table-backed GF({q}) capped at order {_GF_TABLE_CAP}; use a prime q"
            )
        modulus = self._find_irreducible()
        # runs[d][h]: the run of p sums whose higher digits sum to h, for a
        # lowest digit d: the elements p·h..p·h+p-1 rotated by d.
        elements = array("I", range(q))
        runs = [
            [elements[p * h + d : p * h + p] + elements[p * h : p * h + d] for h in range(q // p)]
            for d in range(p)
        ]
        self.add = add = [elements]
        for a in range(1, q):
            high = add[a // p][: q // p]
            add.append(array("I", b"".join(map(runs[a % p].__getitem__, high))))
        powers = self._powers(modulus)
        self._log = log = [0] * q
        for e, x in enumerate(powers):
            log[x] = e
        self._twice = powers + powers

    def mul_row(self, a: int) -> list[int]:
        """a·b for b = 0..q-1."""
        if a == 0:
            return [0] * self.q
        log = self._log
        return [0, *map(self._twice[log[a] : log[a] + self.q - 1].__getitem__, log[1:])]

    def _find_irreducible(self) -> list[int]:
        for low in itertools.product(range(self.p), repeat=self.k):
            f = list(low) + [1]
            if _is_irreducible(f, self.p):
                return f
        raise AssertionError("no irreducible polynomial found")

    def _powers(self, modulus: list[int]) -> list[int]:
        """g^0, ..., g^(q-2) for the least element g that generates the
        multiplicative group, as element numbers."""
        p, k, q = self.p, self.k, self.q

        def times(a: int, b: int) -> int:
            da = [a // p**i % p for i in range(k)]
            db = [b // p**i % p for i in range(k)]
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] += x * y
            rest = _poly_mod([c % p for c in prod], modulus, p)
            return sum(c * p**i for i, c in enumerate(rest))

        for g in range(1, q):
            powers = [1]
            while len(powers) < q:
                x = times(powers[-1], g)
                if x == 1:
                    break
                powers.append(x)
            if len(powers) == q - 1:
                return powers
        raise AssertionError("no primitive element found")
