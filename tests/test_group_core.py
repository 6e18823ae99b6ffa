import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powspec import group_core
from powspec.group_core import (
    Cyclic,
    GroupElement,
    SemidihedralType,
    cyclic_subgroup,
    element_order,
    elements,
    identity,
    inverse,
    is_odd_prime,
    multiply,
    power,
    validate_parameters,
    validate_presentation,
)
from powspec.powergraph import build_power_graph
from powspec.verify_cli import main, sweep

PRIMES = [3, 5, 7, 11, 13, 17, 19]


def word_product(spec, x, y):
    """Oracle: multiply by appending generator letters one at a time.

    Appending r just bumps the exponent; appending s flips the s-part and
    twists the accumulated rotation, which is the defining relation applied
    directly.  No use of the closed-form binary law.
    """
    a, b = 0, 0
    for el in (x, y):
        for _ in range(el.a):
            a ^= 1
            b = (b * spec.twist) % spec.rotation_order
        for _ in range(el.b):
            b = (b + 1) % spec.rotation_order
    return GroupElement(a, b)


class TestValidation:
    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            SemidihedralType(1, 3)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            SemidihedralType(2, 9)

    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            SemidihedralType(2, 2)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            validate_parameters(2.0, 3)
        with pytest.raises(ValueError):
            validate_parameters(2, True)

    def test_accepts_family(self):
        spec = SemidihedralType(2, 3)
        assert spec.order == 24
        assert spec.rotation_order == 12
        assert spec.twist == 5

    def test_odd_prime_detector(self):
        assert is_odd_prime(3) and is_odd_prime(97) and is_odd_prime(7919)
        assert not is_odd_prime(2) and not is_odd_prime(1)
        assert not is_odd_prime(91) and not is_odd_prime(561)  # 91=7*13, Carmichael 561

    def test_primality_matches_a_sieve_and_rejects_weak_pseudoprimes(self):
        # strong pseudoprimes to base 2, to bases 2 and 3, to bases 2..5, and to 2..7
        composites_passing_weak_tests = (2047, 1373653, 25326001, 3215031751)
        assert not any(group_core._is_prime(c) for c in composites_passing_weak_tests)
        sieve = [k for k in range(2000) if k > 1 and all(k % d for d in range(2, int(k**0.5) + 1))]
        assert [k for k in range(2000) if group_core._is_prime(k)] == sieve

    def test_rejects_strong_pseudoprimes_to_the_first_primes(self):
        # psi_12 passes Miller-Rabin to the bases 2..37, psi_13 to the bases 2..41
        psi_12 = 399165290221 * 798330580441
        psi_13 = 1287836182261 * 2575672364521
        assert psi_12 == 318665857834031151167461
        assert psi_13 == 3317044064679887385961981
        assert not is_odd_prime(psi_12)
        with pytest.raises(ValueError, match="p must be an odd prime"):
            validate_parameters(2, psi_12)
        for n in (psi_13, psi_13 + 2, 2**127 - 1):
            with pytest.raises(ValueError, match=f"not below {psi_13}"):
                validate_parameters(2, n)
            with pytest.raises(ValueError, match=f"not below {psi_13}"):
                is_odd_prime(n)

    def test_accepts_a_large_prime(self):
        validate_parameters(2, 2**61 - 1)
        assert is_odd_prime(2**61 - 1)

    def test_cyclic_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Cyclic(0)


class TestMultiplication:
    def test_r_times_s(self):
        # r * s normalizes to s r^5 when the twist is 5
        spec = SemidihedralType(2, 3)
        assert multiply(spec, GroupElement(0, 1), GroupElement(1, 0)) == GroupElement(1, 5)

    def test_s_squared(self):
        spec = SemidihedralType(2, 3)
        assert multiply(spec, GroupElement(1, 0), GroupElement(1, 0)) == identity(spec)

    def test_rotations_commute(self):
        spec = SemidihedralType(2, 3)
        x, y = GroupElement(0, 7), GroupElement(0, 9)
        assert multiply(spec, x, y) == multiply(spec, y, x) == GroupElement(0, 4)

    def test_rejects_non_canonical(self):
        spec = SemidihedralType(2, 3)
        with pytest.raises(ValueError):
            multiply(spec, GroupElement(0, 12), identity(spec))
        with pytest.raises(ValueError):
            multiply(spec, GroupElement(2, 0), identity(spec))
        with pytest.raises(ValueError):
            multiply(Cyclic(6), GroupElement(1, 0), GroupElement(0, 0))

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5)])
    def test_matches_word_oracle_exhaustively(self, k, p):
        spec = SemidihedralType(k, p)
        els = elements(spec)
        for x in els:
            for y in els:
                assert multiply(spec, x, y) == word_product(spec, x, y)

    def test_cyclic_multiplication(self):
        spec = Cyclic(12)
        assert multiply(spec, GroupElement(0, 7), GroupElement(0, 8)) == GroupElement(0, 3)


class TestGroupElement:
    """An element is its (a, b) pair."""

    def test_equals_and_hashes_like_its_pair(self):
        x = GroupElement(1, 5)
        assert x == (1, 5) and (1, 5) == x
        assert hash(x) == hash((1, 5))
        assert {(1, 5): "found"}[x] == "found"

    def test_order_str_and_repr(self):
        els = [GroupElement(1, 0), GroupElement(0, 5), GroupElement(1, 5), GroupElement(0, 1)]
        assert sorted(els) == [
            GroupElement(0, 1),
            GroupElement(0, 5),
            GroupElement(1, 0),
            GroupElement(1, 5),
        ]
        assert str(GroupElement(1, 5)) == "s^1 r^5"
        assert repr(GroupElement(1, 5)) == "GroupElement(a=1, b=5)"

    def test_immutable(self):
        x = GroupElement(1, 5)
        with pytest.raises(AttributeError):
            x.a = 0


class TestPairProduct:
    """group_core._product, the group law on (a, b) pairs that every public
    function and the power-graph build run on."""

    @pytest.mark.parametrize(
        "spec", [SemidihedralType(2, 3), SemidihedralType(2, 5), Cyclic(12)], ids=str
    )
    def test_matches_word_oracle_exhaustively(self, spec):
        q, theta = spec.rotation_order, spec.twist
        els = elements(spec)
        for x in els:
            for y in els:
                want = word_product(spec, x, y)
                assert group_core._product(q, theta, (x.a, x.b), (y.a, y.b)) == (want.a, want.b)

    @pytest.mark.parametrize("spec", [SemidihedralType(2, 3), Cyclic(12)], ids=str)
    def test_takes_elements_as_they_are(self, spec):
        q, theta = spec.rotation_order, spec.twist
        els = elements(spec)
        for x in els:
            for y in els:
                got = group_core._product(q, theta, x, y)
                assert type(got) is tuple
                assert got == group_core._product(q, theta, (x.a, x.b), (y.a, y.b))

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda spec, x: power(spec, x, 5), id="power"),
            pytest.param(lambda spec, x: power(spec, x, 0), id="power-0"),
            pytest.param(lambda spec, x: power(spec, x, -1), id="power-negative"),
            pytest.param(element_order, id="element_order"),
            pytest.param(cyclic_subgroup, id="cyclic_subgroup"),
            pytest.param(lambda spec, x: multiply(spec, x, identity(spec)), id="multiply"),
        ],
    )
    @pytest.mark.parametrize(
        "spec,x",
        [
            (SemidihedralType(2, 3), GroupElement(0, 12)),
            (SemidihedralType(2, 3), GroupElement(2, 0)),
            (SemidihedralType(2, 3), GroupElement(0, -1)),
            (Cyclic(6), GroupElement(1, 0)),
        ],
        ids=str,
    )
    def test_public_functions_reject_non_canonical(self, call, spec, x):
        with pytest.raises(ValueError, match=re.escape(f"element {x} is not canonical for")):
            call(spec, x)

    def test_associativity_sample_runs_on_the_pair_law(self, monkeypatch):
        real = group_core._product

        def skewed(q, theta, x, y):
            # adds 1 to the exponent when two flips meet: not associative
            a, b = real(q, theta, x, y)
            return a, (b + (x[0] & y[0])) % q

        monkeypatch.setattr(group_core, "_product", skewed)
        report = validate_presentation(SemidihedralType(2, 5))
        (sample,) = [i for i in report.items if i.name == "associativity_sample"]
        assert not sample.ok
        assert sample.detail == "200 triples"

    def test_associativity_sample_draws_the_seeded_triples(self, monkeypatch):
        spec = SemidihedralType(2, 5)
        picks = random.Random(spec.order).choices(elements(spec), k=600)
        want = [tuple(picks[i : i + 3]) for i in range(0, 600, 3)]
        calls = []
        real = group_core._product

        def spy(q, theta, x, y):
            calls.append((x, y))
            return real(q, theta, x, y)

        monkeypatch.setattr(group_core, "_product", spy)
        assert validate_presentation(spec).ok
        # the sample is the last 4 products, each over all 200 triples as
        # (a, b) arrays: (x y), (x y) z, (y z), x (y z)
        (x, y), (xy, z), (y_again, z_again), (x_again, yz) = calls[-4:]

        def pairs(arrays):
            a, b = arrays
            return [(int(i), int(j)) for i, j in zip(a, b)]

        assert list(zip(pairs(x), pairs(y), pairs(z))) == want
        assert (pairs(x_again), pairs(y_again), pairs(z_again)) == (pairs(x), pairs(y), pairs(z))
        q, theta = spec.rotation_order, spec.twist
        assert pairs(xy) == [real(q, theta, u, v) for u, v in zip(pairs(x), pairs(y))]
        assert pairs(yz) == [real(q, theta, u, v) for u, v in zip(pairs(y), pairs(z))]

    @pytest.mark.parametrize("spec", [SemidihedralType(2, 3), SemidihedralType(3, 5)], ids=str)
    def test_array_products_are_the_pair_products(self, spec):
        q, theta = spec.rotation_order, spec.twist
        els = elements(spec)
        xs = [x for x in els for _ in els]
        ys = [y for _ in els for y in els]
        a, b = group_core._product(
            q,
            theta,
            (np.array([x.a for x in xs]), np.array([x.b for x in xs])),
            (np.array([y.a for y in ys]), np.array([y.b for y in ys])),
        )
        assert a.dtype == b.dtype == np.int64
        assert list(zip(a.tolist(), b.tolist())) == [
            group_core._product(q, theta, x, y) for x, y in zip(xs, ys)
        ]


@pytest.fixture
def open_walk_law(monkeypatch):
    """Swap in a broken group law that reduces b mod 3q instead of q, so the
    powers of r close only after 3q steps, more than the group order 2q."""

    def law(q, theta, x, y):
        a, b = x
        c, d = y
        if c:
            b *= theta
        return a ^ c, (b + d) % (3 * q)

    monkeypatch.setattr(group_core, "_product", law)


class TestBrokenLawFailsFast:
    """A walk of powers that does not close within |G| steps raises."""

    @pytest.mark.parametrize("call", [element_order, cyclic_subgroup])
    @pytest.mark.parametrize("spec", [SemidihedralType(2, 3), Cyclic(12)], ids=str)
    def test_open_walk_raises(self, open_walk_law, spec, call):
        with pytest.raises(ArithmeticError, match=re.escape("powers of s^0 r^1 do not return")):
            call(spec, GroupElement(0, 1))

    def test_power_graph_build_raises(self, open_walk_law):
        # In C_12 the build walks from r first.  In the twisted group it walks
        # from the central rotation first, and that walk closes within |G|
        # steps but leaves the canonical range, so the build names the pair.
        with pytest.raises(ArithmeticError, match=re.escape("in 12 steps")):
            build_power_graph(Cyclic(12))
        with pytest.raises(
            ArithmeticError, match=re.escape("powers of s^0 r^6 reach the non-canonical pair (0, 12)")
        ):
            build_power_graph(SemidihedralType(2, 3))

    def test_walk_out_of_range_exits_2(self, open_walk_law, capsys):
        assert main(["verify", "--k", "2", "--p", "5"]) == 2
        assert "s^0 r^10 reach the non-canonical pair (0, 20)" in capsys.readouterr().err
        (report,) = sweep([2], [5], kinds=())
        (check,) = report.checks
        assert check.name == "execution" and check.status == "fail"
        assert "ArithmeticError" in check.detail["traceback"]


class TestInverseAndPower:
    def test_rotation_inverse(self):
        spec = SemidihedralType(2, 3)
        assert inverse(spec, GroupElement(0, 5)) == GroupElement(0, 7)

    @pytest.mark.parametrize("k,p", [(2, 3), (3, 3)])
    def test_inverse_exhaustive(self, k, p):
        spec = SemidihedralType(k, p)
        e = identity(spec)
        for x in elements(spec):
            assert multiply(spec, x, inverse(spec, x)) == e
            assert multiply(spec, inverse(spec, x), x) == e

    def test_power_agrees_with_iteration(self):
        spec = SemidihedralType(2, 5)
        x = GroupElement(1, 3)
        acc = identity(spec)
        for m in range(9):
            assert power(spec, x, m) == acc
            acc = multiply(spec, acc, x)
        assert power(spec, x, -1) == inverse(spec, x)


class TestOrdersAndSubgroups:
    def test_element_orders(self):
        spec = SemidihedralType(2, 3)
        assert element_order(spec, identity(spec)) == 1
        assert element_order(spec, GroupElement(0, 1)) == 12
        assert element_order(spec, GroupElement(0, 6)) == 2
        assert element_order(spec, GroupElement(1, 1)) == 4
        assert element_order(spec, GroupElement(1, 2)) == 2

    def test_flip_orders(self):
        # odd flips square to the central rotation, even flips to the identity
        for k, p in [(2, 3), (2, 5), (3, 3)]:
            spec = SemidihedralType(k, p)
            u = spec.central_rotation
            e = identity(spec)
            for b in range(spec.rotation_order):
                x = GroupElement(1, b)
                sq = multiply(spec, x, x)
                assert sq == (u if b % 2 else e)
                assert element_order(spec, x) == (4 if b % 2 else 2)

    def test_subgroup_of_odd_flip(self):
        spec = SemidihedralType(2, 3)
        assert set(cyclic_subgroup(spec, GroupElement(1, 1))) == {
            GroupElement(0, 0),
            GroupElement(1, 1),
            GroupElement(0, 6),
            GroupElement(1, 7),
        }

    def test_subgroup_generation_order(self):
        spec = Cyclic(6)
        assert cyclic_subgroup(spec, GroupElement(0, 2)) == (
            GroupElement(0, 0),
            GroupElement(0, 2),
            GroupElement(0, 4),
        )

    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
    def test_lagrange(self, k, p):
        spec = SemidihedralType(k, p)
        for x in elements(spec):
            order = element_order(spec, x)
            assert spec.order % order == 0
            assert len(cyclic_subgroup(spec, x)) == order


class TestGroupAxioms:
    @pytest.mark.parametrize("spec", [SemidihedralType(2, 3), SemidihedralType(3, 3), Cyclic(24)])
    def test_exhaustive_axioms(self, spec):
        els = elements(spec)
        assert len(set(els)) == spec.order
        e = identity(spec)
        for x in els:
            assert multiply(spec, x, e) == x
            assert multiply(spec, e, x) == x
        seen = set(els)
        for x in els:
            for y in els:
                xy = multiply(spec, x, y)
                assert xy in seen
                for z in els:
                    assert multiply(spec, xy, z) == multiply(spec, x, multiply(spec, y, z))


class TestPresentation:
    @pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3), (4, 7)])
    def test_relations_hold(self, k, p):
        report = validate_presentation(SemidihedralType(k, p))
        assert report.ok, [i for i in report.items if not i.ok]
        assert report.group_order == 2 ** (k + 1) * p
        names = {i.name for i in report.items}
        assert "conjugation_twist" in names and "twist_involutive" in names

    @pytest.mark.parametrize("divisor", ["2", "p"])
    def test_rotation_order_fails_on_a_proper_divisor(self, divisor, monkeypatch):
        # a law that reduces exponents mod q/2 or mod q/p: r^q is still e,
        # so only the prime-divisor half of the order test can catch it
        spec = SemidihedralType(3, 5)
        q = spec.rotation_order
        small = q // (2 if divisor == "2" else spec.p)
        real = group_core._product
        monkeypatch.setattr(
            group_core, "_product", lambda _q, theta, x, y: real(small, theta, x, y)
        )
        assert power(spec, GroupElement(0, 1), q) == identity(spec)
        (item,) = [i for i in validate_presentation(spec).items if i.name == "rotation_order"]
        assert not item.ok

    def test_group_order_fails_on_a_repeated_element(self, monkeypatch):
        # |G| elements, one of them listed twice in place of another
        def repeating(spec):
            listed = elements(spec)
            listed[-1] = listed[0]
            return listed

        spec = SemidihedralType(2, 3)
        monkeypatch.setattr(group_core, "elements", repeating)
        report = validate_presentation(spec)
        (item,) = [i for i in report.items if i.name == "group_order"]
        assert not item.ok and not report.ok
        assert item.detail == f"{spec.order} elements"

    def test_rotation_order_does_not_walk_the_powers(self, monkeypatch):
        def forbidden(spec, x):
            raise AssertionError("the order of r is decided by O(log q) powers, not a walk")

        monkeypatch.setattr(group_core, "_powers", forbidden)
        assert validate_presentation(SemidihedralType(4, 7)).ok


def test_seeded_indices_are_the_choices_draws():
    # every order up to 2999, and the family's orders 2^(k+1) p up to k = 11
    orders = [*range(1, 3000)]
    orders += [2 ** (k + 1) * p for k in range(2, 12) for p in (3, 5, 7, 2039)]
    mismatched = [
        n
        for n in orders
        if group_core._seeded_indices(n, n, 600).tolist()
        != random.Random(n).choices(range(n), k=600)
    ]
    assert mismatched == []
    drawn = group_core._seeded_indices(7, 24, 5)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == random.Random(7).choices(range(24), k=5)


@given(k=st.integers(2, 40), p=st.sampled_from(PRIMES))
def test_twist_is_involutive_mod_rotation_order(k, p):
    q = 2**k * p
    theta = 2 ** (k - 1) * p - 1
    assert theta * theta % q == 1


@given(
    k=st.integers(2, 5),
    p=st.sampled_from(PRIMES),
    data=st.data(),
)
@settings(deadline=None, max_examples=50)
def test_sampled_associativity_and_oracle(k, p, data):
    spec = SemidihedralType(k, p)
    q = spec.rotation_order
    el = st.builds(GroupElement, st.integers(0, 1), st.integers(0, q - 1))
    x, y, z = data.draw(el), data.draw(el), data.draw(el)
    assert multiply(spec, x, y) == word_product(spec, x, y)
    assert multiply(spec, multiply(spec, x, y), z) == multiply(spec, x, multiply(spec, y, z))
