"""Exact arithmetic for cyclic groups and a twisted family of order 2^(k+1)*p.

The twisted family is generated by a rotation r of order 2^k*p and an
involution s that conjugates r to r^theta, where theta = 2^(k-1)*p - 1.
Because theta^2 = 1 (mod 2^k*p), every product normalizes to a unique
word s^a r^b with a in {0,1} and 0 <= b < 2^k*p, and that pair (a, b)
is the canonical element representation used throughout the package.

A GroupElement is that pair, a named (a, b) tuple that equals and hashes
like the plain tuple, so the group law, written once in _product, runs
on elements as they are.  The public functions check each element they
are given once, at the boundary; the loops inside them, the
presentation's associativity sample and the power-graph build do not
re-validate one.  The walk of powers turns its generator into a plain
pair once, so each step of _product unpacks an exact tuple.  Lists of
elements are built by _elements, one C-level map of tuple.__new__ over
the pairs, which makes the same GroupElement instances as the class call
without running its Python-level __new__ once per element.

validate_presentation decides the order of r in O(log q) products by the
prime-divisor test (r^q = e, and r^(q/l) != e for the primes l = 2, p
of q), and draws the associativity sample's 600 seeded indices from one
getrandbits call (_seeded_indices), the same indices that choices draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "Cyclic",
    "SemidihedralType",
    "GroupSpec",
    "GroupElement",
    "PresentationCheck",
    "PresentationReport",
    "is_odd_prime",
    "validate_parameters",
    "identity",
    "elements",
    "multiply",
    "inverse",
    "power",
    "element_order",
    "cyclic_subgroup",
    "validate_presentation",
]

# Deterministic Miller-Rabin witnesses: the first 13 primes decide every n
# below psi_13 = 1287836182261 * 2575672364521 (Sorenson-Webster 2015), no more.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

# Associativity triples sampled by validate_presentation, seeded by the group order.
_SAMPLE_TRIPLES = 200


def _is_prime(n: int) -> bool:
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is not below {_MR_BOUND}, the bound of the primality test")
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(p: int) -> bool:
    return p % 2 == 1 and _is_prime(p)


def validate_parameters(k: int, p: int) -> None:
    """Reject (k, p) outside the family: k >= 2 integer, p an odd prime."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    if not isinstance(p, int) or isinstance(p, bool) or not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p!r}")


class GroupElement(NamedTuple):
    """Canonical form s^a r^b; cyclic groups use a = 0 throughout."""

    a: int
    b: int

    def __str__(self) -> str:
        return f"s^{self.a} r^{self.b}"


@dataclass(frozen=True)
class Cyclic:
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"cyclic group order must be a positive integer, got {self.n!r}")

    @property
    def order(self) -> int:
        return self.n

    @property
    def rotation_order(self) -> int:
        return self.n

    @property
    def twist(self) -> int:
        return 1


@dataclass(frozen=True)
class SemidihedralType:
    k: int
    p: int

    def __post_init__(self) -> None:
        validate_parameters(self.k, self.p)

    # every product and _require_canonical read these, so they are
    # computed once per spec; fields and equality stay (k, p)
    @cached_property
    def rotation_order(self) -> int:
        return 2**self.k * self.p

    @property
    def order(self) -> int:
        return 2 ** (self.k + 1) * self.p

    @cached_property
    def twist(self) -> int:
        return 2 ** (self.k - 1) * self.p - 1

    @property
    def central_rotation(self) -> "GroupElement":
        # r^(2^(k-1)p), the unique involution inside the rotation subgroup
        return GroupElement(0, 2 ** (self.k - 1) * self.p)


GroupSpec = Union[Cyclic, SemidihedralType]


def identity(spec: GroupSpec) -> GroupElement:
    return GroupElement(0, 0)


def _elements(a: int, bs):
    """The elements s^a r^b for b in bs, lazily, in the order of bs; each
    one is a GroupElement made by tuple.__new__ at C speed."""
    return map(tuple.__new__, repeat(GroupElement), zip(repeat(a), bs))


def elements(spec: GroupSpec) -> list[GroupElement]:
    """All elements, rotations first, each side in ascending exponent order."""
    q = spec.rotation_order
    out = list(_elements(0, range(q)))
    if isinstance(spec, SemidihedralType):
        out.extend(_elements(1, range(q)))
    return out


def _require_canonical(spec: GroupSpec, x: GroupElement) -> None:
    a_max = 1 if isinstance(spec, SemidihedralType) else 0
    if not (0 <= x.a <= a_max and 0 <= x.b < spec.rotation_order):
        raise ValueError(f"element {x} is not canonical for {spec}")


def _product(q: int, theta: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Product of canonical pairs, the one place the group law is written.

    Moving r^b across s twists the exponent by theta, which gives the
    closed form (s^a r^b)(s^c r^d) = s^(a xor c) r^(theta^c * b + d), with
    q the rotation order.  The pairs are not checked; the result is a plain
    tuple.  It has no branch, so the a and b of x and y may also be equal
    length int64 arrays, which multiply many pairs at once; b theta < q^2
    stays exact in int64 for every q whose elements elements() can list.
    """
    a, b = x
    c, d = y
    return a ^ c, (b * theta**c + d) % q


def multiply(spec: GroupSpec, x: GroupElement, y: GroupElement) -> GroupElement:
    """Product x*y in canonical form (see _product)."""
    _require_canonical(spec, x)
    _require_canonical(spec, y)
    return GroupElement(*_product(spec.rotation_order, spec.twist, x, y))


def inverse(spec: GroupSpec, x: GroupElement) -> GroupElement:
    _require_canonical(spec, x)
    q = spec.rotation_order
    b = -x.b if x.a == 0 else -x.b * spec.twist
    return GroupElement(x.a, b % q)


def power(spec: GroupSpec, x: GroupElement, m: int) -> GroupElement:
    """x^m by binary exponentiation; negative m goes through the inverse."""
    if m < 0:
        return power(spec, inverse(spec, x), -m)
    _require_canonical(spec, x)
    q, theta = spec.rotation_order, spec.twist
    acc, base = (0, 0), x
    while m:
        if m & 1:
            acc = _product(q, theta, acc, base)
        base = _product(q, theta, base, base)
        m >>= 1
    return GroupElement(*acc)


def _powers(spec: GroupSpec, x: GroupElement) -> list[tuple[int, int]]:
    """The pairs of x^0, x^1, ..., x^(m-1), m the order of x, each one the
    previous power times x; x is not checked.  The order of x divides |G|,
    so a walk still open after |G| steps is a broken law, and raises."""
    q, theta, order = spec.rotation_order, spec.twist, spec.order
    # unpacking a plain tuple in _product is faster than a GroupElement
    y = step = (x[0], x[1])
    out = [(0, 0)]
    for _ in range(order):
        if y == (0, 0):
            return out
        out.append(y)
        y = _product(q, theta, y, step)
    raise ArithmeticError(f"powers of {x} do not return to the identity in {order} steps")


def element_order(spec: GroupSpec, x: GroupElement) -> int:
    _require_canonical(spec, x)
    return len(_powers(spec, x))


def cyclic_subgroup(spec: GroupSpec, x: GroupElement) -> tuple[GroupElement, ...]:
    """Powers of x in generation order, starting from the identity."""
    _require_canonical(spec, x)
    return tuple([GroupElement(*y) for y in _powers(spec, x)])


@dataclass(frozen=True)
class PresentationCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class PresentationReport:
    group_order: int
    items: tuple[PresentationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)


def _seeded_indices(seed: int, n: int, count: int):
    """random.Random(seed).choices(range(n), k=count) as an int64 array,
    from one getrandbits call in place of count Python-level random() calls.

    choices draws index floor(random() * n), and random() reads two 32-bit
    outputs a, b of the generator as ((a >> 5) 2^26 + (b >> 6)) 2^-53.
    getrandbits(64 count) returns the same 2 count outputs, the first one
    least significant, so its words read in pairs give the same floats:
    the numerator is below 2^53, exact in float64, and the two products
    round as random() and choices round them.
    """
    bits = random.Random(seed).getrandbits(64 * count)
    words = np.frombuffer(bits.to_bytes(8 * count, "little"), "<u4")
    a, b = words[0::2] >> 5, words[1::2] >> 6
    # the products are non-negative, so truncating to int is the floor
    return ((a * 2.0**26 + b) * 2.0**-53 * n).astype(np.int64)


def validate_presentation(spec: SemidihedralType) -> PresentationReport:
    """Check the defining relations and a sampled slice of associativity."""
    if not isinstance(spec, SemidihedralType):
        raise ValueError("presentation checks apply to the twisted family only")
    q = spec.rotation_order
    theta = spec.twist
    e = identity(spec)
    s = GroupElement(1, 0)
    r = GroupElement(0, 1)

    items = []
    # r has order q = 2^k p exactly when r^q = e and r^(q/l) != e for l = 2, p
    rotation_order = power(spec, r, q) == e and all(
        power(spec, r, q // ell) != e for ell in (2, spec.p)
    )
    items.append(PresentationCheck("rotation_order", rotation_order))
    items.append(PresentationCheck("involution", multiply(spec, s, s) == e))
    conj = multiply(spec, multiply(spec, s, r), inverse(spec, s))
    items.append(
        PresentationCheck(
            "conjugation_twist", conj == GroupElement(0, theta % q), f"s r s^-1 = {conj}"
        )
    )
    items.append(PresentationCheck("twist_involutive", (theta * theta - 1) % q == 0))

    elems = elements(spec)
    items.append(
        PresentationCheck("group_order", len(set(elems)) == spec.order, f"{len(elems)} elements")
    )

    # the seeded draws by index, the ones choices(elems) draws; elems lists
    # the rotations, then the flips, so index i is the pair divmod(i, q)
    picks = _seeded_indices(spec.order, len(elems), 3 * _SAMPLE_TRIPLES)
    a, b = np.divmod(picks.reshape(-1, 3).T, q)
    x, y, z = zip(a, b)  # the triples' (a, b) arrays, one pair of arrays per position
    lhs = _product(q, theta, _product(q, theta, x, y), z)
    rhs = _product(q, theta, x, _product(q, theta, y, z))
    ok = all(left.tolist() == right.tolist() for left, right in zip(lhs, rhs))
    items.append(PresentationCheck("associativity_sample", ok, f"{_SAMPLE_TRIPLES} triples"))

    return PresentationReport(group_order=spec.order, items=tuple(items))
