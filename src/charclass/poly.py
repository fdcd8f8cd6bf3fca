"""Sparse multivariate polynomials over Q or a large prime field GF(p).

A polynomial is stored as a dict mapping *packed monomial keys* to nonzero
coefficients.  A key encodes the whole exponent vector in one Python int,
laid out so that the natural integer order on keys equals graded reverse
lexicographic order on monomials:

    key = [tag] [total degree] [C - e_{n-1}] ... [C - e_1] [C - e_0]

with 16-bit slots and C = 2**15 - 1.  Variables are listed in decreasing
precedence (the first declared variable is the largest), and grevlex breaks
degree ties at the *last* differing variable, which is why that variable
owns the most significant exponent slot.  Storing C - e instead of e makes
bigger keys correspond to grevlex-larger monomials.

Consequences exploited throughout the package:

  * lead monomial of a polynomial = max() over the key dict,
  * monomial product = key_a + key_b - ONE  (one int operation),
  * divisibility = a guard-bit subtraction trick, no unpacking.

Rings with ``nelim=1`` carry one extra *elimination* variable in front
(used as the tag t in ideal intersections); its exponent sits above the
degree slot, giving the product order "t-degree first, then grevlex", which
is an elimination order for t.

Coefficients are ints in [0, p) for GF(p), and Fraction for Q (p == 0).
Polynomial values are immutable: every operation returns a fresh value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .primes import is_prime

_W = 16
_SLOTMAX = (1 << (_W - 1)) - 1  # 32767, also the maximum exponent


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for a prime p > 2**20, or Q when p == 0."""

    p: int = 0

    def __post_init__(self):
        if self.p:
            if self.p <= (1 << 20):
                raise DomainError(f"field characteristic must exceed 2^20, got {self.p}")
            if not is_prime(self.p):
                raise DomainError(f"field characteristic {self.p} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.p == 0

    def coerce(self, c):
        """Map an int/Fraction into canonical coefficient form."""
        if self.p:
            if isinstance(c, Fraction):
                if c.denominator == 1:
                    return c.numerator % self.p
                return c.numerator * pow(c.denominator, -1, self.p) % self.p
            return c % self.p
        return c if isinstance(c, Fraction) else Fraction(c)

    def inv(self, c):
        if self.p:
            return pow(c, -1, self.p)
        return 1 / c

    def uniform(self, rng):
        """Uniform field element for GF(p); a small random integer for Q."""
        if self.p:
            return rng.randrange(self.p)
        return Fraction(rng.randrange(-999, 1000))

    def uniform_nonzero(self, rng):
        while True:
            c = self.uniform(rng)
            if c:
                return c


class _Codec:
    """Packs exponent vectors into grevlex-comparable integers."""

    __slots__ = (
        "nvars", "nelim", "nx", "degshift", "tagshift",
        "one", "expmask", "guard", "lanes", "lanesum", "sumshift",
    )

    def __init__(self, nvars: int, nelim: int = 0):
        if nelim not in (0, 1):
            raise ValueError("at most one elimination variable is supported")
        self.nvars = nvars
        self.nelim = nelim
        nx = nvars - nelim
        if nx < 1:
            raise ValueError("ring needs at least one non-elimination variable")
        self.nx = nx
        self.degshift = _W * nx
        self.tagshift = self.degshift + _W
        self.one = sum(_SLOTMAX << (_W * j) for j in range(nx))
        self.expmask = (1 << self.degshift) - 1
        self.guard = sum(1 << (_W * j + _W - 1) for j in range(nx))
        # the even 16-bit slots, each in the low half of a 32-bit lane; one
        # multiply by `lanesum` leaves the sum of all lanes in the top lane
        nlanes = (nx + 1) // 2
        self.lanes = sum(0xFFFF << (2 * _W * j) for j in range(nlanes))
        self.lanesum = sum(1 << (2 * _W * j) for j in range(nlanes))
        self.sumshift = 2 * _W * (nlanes - 1)

    def pack(self, exps) -> int:
        if self.nelim:
            tag, xs = exps[0], exps[1:]
        else:
            tag, xs = 0, exps
        key = 0
        deg = 0
        for j, e in enumerate(xs):
            if e < 0 or e > _SLOTMAX:
                raise DomainError(f"exponent {e} out of supported range [0, {_SLOTMAX}]")
            deg += e
            key |= (_SLOTMAX - e) << (_W * j)
        key |= deg << self.degshift
        if tag:
            key |= tag << self.tagshift
        return key

    def unpack(self, key: int) -> tuple:
        xs = tuple(
            _SLOTMAX - ((key >> (_W * j)) & 0xFFFF) for j in range(self.nx)
        )
        if self.nelim:
            return (key >> self.tagshift,) + xs
        return xs

    def quo(self, b: int, a: int) -> int:
        """Key of b / a; caller guarantees divisibility."""
        return b - a + self.one

    def divides(self, a: int, b: int) -> bool:
        ae = a & self.expmask
        be = b & self.expmask
        if (((ae | self.guard) - be) & self.guard) != self.guard:
            return False
        if self.nelim:
            return (a >> self.tagshift) <= (b >> self.tagshift)
        return True

    def lcm(self, a: int, b: int) -> int:
        """Key of lcm(a, b), computed on the packed keys.

        Slot j of the result is min(C - a_j, C - b_j): the guard bit of
        ((a | guard) - b) marks the slots where a's is not the smaller, as in
        `divides`.  The degree slot is nx*C minus the sum of the slots, which
        one multiply gathers from the even plus the odd slots in 32-bit
        lanes.  On tag rings the larger tag is kept.
        """
        ae = a & self.expmask
        be = b & self.expmask
        g = ((ae | self.guard) - be) & self.guard
        e = ae ^ ((ae ^ be) & (g - (g >> (_W - 1))))
        lanes = self.lanes
        pairs = (e & lanes) + ((e >> _W) & lanes)
        total = (pairs * self.lanesum >> self.sumshift) & 0xFFFFFFFF
        key = e | (self.nx * _SLOTMAX - total) << self.degshift
        if self.nelim:
            return key | max(a >> self.tagshift, b >> self.tagshift) << self.tagshift
        return key

    def xdeg(self, key: int) -> int:
        """Total degree in the non-elimination variables."""
        return (key >> self.degshift) & 0xFFFF

    def maxdeg(self, keys) -> int:
        """Largest total degree in the non-elimination variables over `keys`.

        Without a tag the grevlex lead key has the largest degree; with one,
        the lead key has the largest tag instead, so every key is read.
        """
        if self.nelim:
            return max(map(self.xdeg, keys))
        return self.xdeg(max(keys))

    def tag(self, key: int) -> int:
        return key >> self.tagshift if self.nelim else 0

    def total_degree(self, key: int) -> int:
        return self.xdeg(key) + self.tag(key)


class Ring:
    """A polynomial ring with fixed variable names, field and grevlex order.

    ``nelim=1`` prepends one elimination variable (compared before the
    grevlex block); it is only used internally for ideal intersections.
    """

    __slots__ = ("names", "field", "nelim", "codec", "nvars")

    def __init__(self, names, field: FieldSpec, nelim: int = 0):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate variable names in {names}")
        if not names:
            raise DomainError("ring needs at least one variable")
        self.names = names
        self.field = field
        self.nelim = nelim
        self.nvars = len(names)
        self.codec = _Codec(self.nvars, nelim)

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.names == other.names
            and self.field == other.field
            and self.nelim == other.nelim
        )

    def __hash__(self):
        return hash((self.names, self.field, self.nelim))

    def __repr__(self):
        base = "QQ" if self.field.is_rationals else f"GF({self.field.p})"
        return f"{base}[{', '.join(self.names)}]"

    # -- constructors -----------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {self.codec.pack((0,) * self.nvars): c})

    def var(self, j: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[j] = 1
        return Polynomial(self, {self.codec.pack(tuple(exps)): self.field.coerce(1)})

    def gens(self):
        return [self.var(j) for j in range(self.nvars)]

    def from_exp_dict(self, d) -> "Polynomial":
        """Build from {exponent tuple: coefficient}, coercing and dropping zeros."""
        terms = {}
        for exps, c in d.items():
            c = self.field.coerce(c)
            if not c:
                continue
            k = self.codec.pack(tuple(exps))
            v = terms.get(k)
            if v is None:
                terms[k] = c
            else:
                v = v + c
                if self.field.p:
                    v %= self.field.p
                if v:
                    terms[k] = v
                else:
                    del terms[k]
        return Polynomial(self, terms)

    def monomials_of_degree(self, d: int):
        """All exponent tuples of total degree d (dense form support)."""
        n = self.nvars
        for bars in itertools.combinations(range(d + n - 1), n - 1):
            exps = []
            prev = -1
            for b in bars:
                exps.append(b - prev - 1)
                prev = b
            exps.append(d + n - 2 - prev)
            yield tuple(exps)

    def random_form(self, d: int, rng) -> "Polynomial":
        """Dense random homogeneous form of degree d, coefficients uniform."""
        terms = {}
        pack = self.codec.pack
        for exps in self.monomials_of_degree(d):
            c = self.field.uniform(rng)
            if c:
                terms[pack(exps)] = c
        return Polynomial(self, terms)


class Polynomial:
    """Immutable sparse polynomial; see module docstring for representation."""

    __slots__ = ("ring", "_t")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self._t = terms

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        return len(self._t)

    def lm(self) -> int:
        """Packed key of the lead monomial (grevlex)."""
        return max(self._t)

    def lc(self):
        return self._t[max(self._t)]

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._t:
            return -1
        td = self.ring.codec.total_degree
        return max(td(k) for k in self._t)

    def is_homogeneous(self) -> bool:
        if not self._t:
            return True
        td = self.ring.codec.total_degree
        degs = {td(k) for k in self._t}
        return len(degs) == 1

    def is_constant(self) -> bool:
        return self.total_degree() <= 0

    def terms(self):
        """(exponent tuple, coefficient) pairs in decreasing monomial order."""
        unpack = self.ring.codec.unpack
        return [(unpack(k), self._t[k]) for k in sorted(self._t, reverse=True)]

    def coefficient(self, exps):
        k = self.ring.codec.pack(tuple(exps))
        return self._t.get(k, self.ring.field.coerce(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._t == other._t

    def __hash__(self):
        return hash((self.ring, frozenset(self._t.items())))

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise DomainError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check_ring(other)
        p = self.ring.field.p
        out = dict(self._t)
        for k, c in other._t.items():
            v = out.get(k)
            if v is None:
                out[k] = c
            else:
                v = (v + c) % p if p else v + c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return Polynomial(self.ring, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def __neg__(self):
        p = self.ring.field.p
        if p:
            return Polynomial(self.ring, {k: p - c for k, c in self._t.items()})
        return Polynomial(self.ring, {k: -c for k, c in self._t.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            if not c:
                return self.ring.zero()
            p = self.ring.field.p
            if p:
                return Polynomial(self.ring, {k: v * c % p for k, v in self._t.items()})
            return Polynomial(self.ring, {k: v * c for k, v in self._t.items()})
        self._check_ring(other)
        a, b = self._t, other._t
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return self.ring.zero()
        codec = self.ring.codec
        # a larger degree would carry out of the packed exponent slots
        deg = codec.maxdeg(a) + codec.maxdeg(b)
        if deg > _SLOTMAX:
            raise DomainError(f"product degree {deg} exceeds the maximum exponent {_SLOTMAX}")
        p = self.ring.field.p
        one = codec.one
        out = {}
        for ka, ca in a.items():
            kd = ka - one
            for kb, cb in b.items():
                k = kd + kb
                v = out.get(k)
                out[k] = ca * cb if v is None else v + ca * cb
        if p:
            out = {k: r for k, v in out.items() if (r := v % p)}
        else:
            out = {k: v for k, v in out.items() if v}
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative polynomial powers are not defined")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def monic(self) -> "Polynomial":
        if not self._t:
            return self
        c = self.lc()
        if c == 1:
            return self
        p = self.ring.field.p
        if p:
            inv = pow(c, -1, p)
            return Polynomial(self.ring, {k: v * inv % p for k, v in self._t.items()})
        return Polynomial(self.ring, {k: v / c for k, v in self._t.items()})

    # -- calculus and substitution -------------------------------------------

    def partial(self, j: int) -> "Polynomial":
        """Formal partial derivative with respect to variable j."""
        if j < 0 or j >= self.ring.nvars:
            raise DomainError(f"variable index {j} out of range")
        codec = self.ring.codec
        field = self.ring.field
        out = {}
        for k, c in self._t.items():
            exps = codec.unpack(k)
            e = exps[j]
            if e == 0:
                continue
            ne = list(exps)
            ne[j] = e - 1
            v = c * e % field.p if field.p else c * e
            if v:
                out[codec.pack(tuple(ne))] = v
        return Polynomial(self.ring, out)

    def lift_terms(self):
        """(exponent tuple, int/float coefficient) with GF(p) lifted symmetrically."""
        p = self.ring.field.p
        out = []
        for exps, c in self.terms():
            if p:
                c = c - p if c > p // 2 else c
            out.append((exps, c))
        return out

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self._t:
            return "0"
        p = self.ring.field.p
        names = self.ring.names
        parts = []
        for exps, c in self.terms():
            if p and c > p // 2:
                c = c - p
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c) if isinstance(c, int) else abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if (isinstance(c, (int, Fraction)) and c < 0) else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"


# -- ring extension / homogenization -------------------------------------------


def insert_variable(ring: Ring, name: str, index: int, nelim=None) -> Ring:
    if name in ring.names:
        raise DomainError(f"variable name {name!r} already in {ring!r}")
    names = ring.names[:index] + (name,) + ring.names[index:]
    return Ring(names, ring.field, ring.nelim if nelim is None else nelim)


def map_to_ring(f: Polynomial, target: Ring, index: int) -> Polynomial:
    """Reinterpret f in `target`, which has one extra variable at `index`."""
    src = f.ring.codec
    dst = target.codec
    out = {}
    for k, c in f._t.items():
        exps = src.unpack(k)
        out[dst.pack(exps[:index] + (0,) + exps[index:])] = c
    return Polynomial(target, out)


def change_field(f: Polynomial, target: Ring) -> Polynomial:
    """f over target's field (same variables); DomainError if p kills a coefficient.

    p kills c when it divides c's numerator (c maps to 0) or denominator.
    """
    p = target.field.p
    coerce = target.field.coerce
    out = {}
    for k, c in f._t.items():
        if p and (c.numerator % p == 0 or c.denominator % p == 0):
            raise DomainError(f"coefficient {c} of {f} does not map to a unit of GF({p})")
        out[k] = coerce(c)
    return Polynomial(target, out)


def drop_variable(f: Polynomial, target: Ring, index: int) -> Polynomial:
    """Remove variable `index` (its exponent must be 0 in every term of f)."""
    src = f.ring.codec
    dst = target.codec
    out = {}
    for k, c in f._t.items():
        exps = src.unpack(k)
        if exps[index] != 0:
            raise DomainError("cannot drop a variable that occurs in the polynomial")
        out[dst.pack(exps[:index] + exps[index + 1:])] = c
    return Polynomial(target, out)


def homogenize(f: Polynomial, name: str, index: int = 0) -> Polynomial:
    """Homogenize with a fresh variable inserted at `index` of the ring.

    Dehomogenizing the result at that variable recovers f exactly.
    """
    ext = insert_variable(f.ring, name, index)
    d = f.total_degree()
    src = f.ring.codec
    dst = ext.codec
    out = {}
    for k, c in f._t.items():
        exps = src.unpack(k)
        out[dst.pack(exps[:index] + (d - sum(exps),) + exps[index:])] = c
    return Polynomial(ext, out)


def substitute_linear(polys, images) -> list:
    """Substitute images[j] for variable j in each polynomial of `polys`.

    All polys share one source ring; `images` holds one polynomial per source
    variable, all in the target ring (affine-linear forms restrict to a linear
    subspace).  `_expand` works Horner-style, one variable at a time, on plain
    dicts, so terms sharing an exponent prefix share its products; powers of
    each image are computed once for all polys.
    """
    images = list(images)
    target = images[0].ring
    p = target.field.p
    nv = len(images)
    one = target.codec.one  # key of the constant monomial
    powers = [[target.one(), img] for img in images]

    def power(j, e):
        cache = powers[j]
        while len(cache) <= e:
            cache.append(cache[-1] * images[j])
        return cache[e]

    out = []
    for f in polys:
        if f.ring.nvars != nv:
            raise DomainError(f"{nv} images for a ring with {f.ring.nvars} variables")
        unpack = f.ring.codec.unpack
        terms = [(unpack(k), c) for k, c in f._t.items()]
        expanded = _reduce(_expand(terms, 0, power, one, p), p) if terms else {}
        out.append(Polynomial(target, expanded))
    return out


def _reduce(acc: dict, p: int) -> dict:
    if p:
        return {k: r for k, v in acc.items() if (r := v % p)}
    return {k: v for k, v in acc.items() if v}


def _expand(terms, j, power, one, p) -> dict:
    """Unreduced expansion of (exponents, coefficient) `terms` from variable j.

    The terms with x_j^e, expanded over the later variables, are multiplied
    into the result against the terms of power(j, e), the cached power of
    images[j].  Exponents are distinct, so a group at the last variable is
    one term.  Module level: a nested recursive function is a reference
    cycle, which keeps the power cache alive until a garbage collection.
    """
    groups = {}
    for t in terms:
        groups.setdefault(t[0][j], []).append(t)
    last = j + 1 == len(terms[0][0])
    acc = {}
    for e, group in groups.items():
        pw = power(j, e)._t
        inner = {one: group[0][1]} if last else _reduce(_expand(group, j + 1, power, one, p), p)
        for ki, ci in inner.items():
            kd = ki - one
            for kp, cp in pw.items():
                k = kd + kp
                acc[k] = acc.get(k, 0) + ci * cp
    return acc


def directional_derivative(f: Polynomial, direction) -> Polynomial:
    """Sum_j v_j * df/dx_j for a coefficient vector v."""
    out = f.ring.zero()
    for j, v in enumerate(direction):
        if v:
            out = out + f.partial(j) * v
    return out
