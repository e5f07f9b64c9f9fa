"""Multiplicative-function calculus: prime systems, convolution, inversion,
local factors, and the tail decomposition."""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_forge import arithmetic, weights
from dirichlet_forge.arithmetic import (
    MultiplicativeFunction,
    PrimeSystem,
    dirichlet_convolve,
    euler_factor,
    euler_invertibility_report,
    invert_multiplicative,
    mean_square_report,
    omega_related,
    tail_decompose,
)
from dirichlet_forge.errors import PreconditionError, ValidationError

from tests.oracles import (brute_dirichlet_convolve, brute_disk_min, brute_primes_upto,
                          divisors, mobius_sieve)

SYS = PrimeSystem.rational_primes(10000)
W1 = weights.one()


def as_dict(vals):
    return {n: v for n, v in enumerate(vals) if n >= 1}


class TestPrimeSystem:
    def test_rational_factory(self):
        s = PrimeSystem.rational_primes(30)
        assert s.primes == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        assert s.rational and s.x == 30

    def test_rational_primes_match_trial_division(self):
        with pytest.raises(ValidationError):
            PrimeSystem.rational_primes(0)
        for x in range(1, 201):
            assert list(PrimeSystem.rational_primes(x).primes) == brute_primes_upto(x)

    def test_max_power(self):
        s = PrimeSystem.rational_primes(100)
        assert s.max_power(0) == 6  # 2^6 = 64
        assert s.max_power(1) == 4  # 3^4 = 81
        assert s.max_power(s.index_of(97)) == 1

    @pytest.mark.parametrize("x", [2 ** 50 - 1, 10 ** 18])
    def test_max_power_is_exact_for_large_rational_bounds(self, x):
        # the float slack of a real system would admit 2^50 = x + 1 here
        s = PrimeSystem(primes=(2, 3, 999983, 10 ** 9 + 7), x=x, rational=True)
        for i, p in enumerate(s.primes):
            k = s.max_power(i)
            assert p ** k <= x < p ** (k + 1)
        assert s.max_power(0) == (49 if x == 2 ** 50 - 1 else 59)
        assert all(v <= x for _, _, v in s.iter_prime_powers())

    def test_index_of_every_prime(self):
        s = PrimeSystem.rational_primes(10 ** 4)
        for i, p in enumerate(brute_primes_upto(10 ** 4)):
            assert s.index_of(p) == i
        for n in (0, 1, 4, 9991, 10007, -2, 2.5, "2", None):
            with pytest.raises(ValidationError):
                s.index_of(n)

    def test_iter_prime_powers_all_below_bound(self):
        s = PrimeSystem.rational_primes(200)
        pps = list(s.iter_prime_powers())
        assert all(v <= 200 for _, _, v in pps)
        assert (0, 7, 128) in pps and (0, 8, 256) not in pps

    def test_validation(self):
        with pytest.raises(ValidationError):
            PrimeSystem(primes=(3, 2), x=10)
        with pytest.raises(ValidationError):
            PrimeSystem(primes=(1.0, 2.0), x=10)
        with pytest.raises(ValidationError):
            PrimeSystem(primes=(2, 3), x=2)  # 3 > x

    def test_rational_system_entries_must_be_prime(self):
        # the constructor tests every entry, with no sieve: a composite one
        # would have its table ignored (on (2, 4), f(4) = 5 read as f(4) = 0)
        for primes in ((2, 4), (2, 3, 561), (2, 3, 2047), (2, 3, 8321)):
            with pytest.raises(ValidationError, match=f"entry {primes[-1]} is not a prime"):
                PrimeSystem(primes=primes, x=primes[-1], rational=True)
        assert PrimeSystem(primes=(2,), x=4, rational=True).primes == (2,)  # may skip primes
        # a 19-digit entry is decided by Miller-Rabin
        m61 = 2 ** 61 - 1
        g = MultiplicativeFunction.one(PrimeSystem(primes=(2, 3, 5, 7, m61), x=m61,
                                                   rational=True))
        assert g.values_up_to(10) == [0] + [1] * 10

    def test_primality_test_matches_a_sieve_and_its_base_bounds(self):
        ps = set(brute_primes_upto(60_000))
        assert [n for n in range(-2, 60_001) if arithmetic._is_prime(n)] == sorted(ps)
        # psi_t, the least strong pseudoprime to the first t prime bases, must
        # meet one base more; at psi_13 the thirteen bases are all there is
        for psi, _ in arithmetic._MR_BOUNDS[:-1]:
            assert not arithmetic._is_prime(psi)
        assert arithmetic._is_prime(arithmetic._MR_BOUNDS[-1][0])  # a probable prime only
        for e in (61, 89, 107, 127):  # Mersenne primes, past psi_13 from 2^89 on
            assert arithmetic._is_prime(2 ** e - 1)
        assert not arithmetic._is_prime((2 ** 61 - 1) * (2 ** 89 - 1))

    def test_beurling_system_allowed(self):
        s = PrimeSystem(primes=(1.5, 2.5, 3.7), x=20.0)
        assert s.max_power(0) == 7  # 1.5^7 ~ 17.1
        f = MultiplicativeFunction.from_rule(s, lambda p, k: 0.5**k)
        g = invert_multiplicative(f)
        conv = dirichlet_convolve(f, g)
        assert all(abs(complex(v)) < 1e-12 for v in conv.ppv.values())


class TestMultiplicativeFunction:
    def test_values_up_to_names_the_first_missing_prime(self):
        f = MultiplicativeFunction(PrimeSystem(primes=(2, 5), x=20, rational=True),
                                   {(0, 1): F(-1)})
        assert f.values_up_to(2) == [0, 1, -1]
        with pytest.raises(PreconditionError, match="lacks the prime 3 <= 20"):
            f.values_up_to(20)
        g = MultiplicativeFunction.one(PrimeSystem(primes=(2, 3), x=20, rational=True))
        assert g.values_up_to(4) == [0, 1, 1, 1, 1]
        with pytest.raises(PreconditionError, match="lacks the prime 5 <= 20"):
            g.values_up_to()

    def test_unit_values(self):
        eps = MultiplicativeFunction.unit(SYS)
        vals = eps.values_up_to(50)
        assert vals[1] == 1 and all(vals[n] == 0 for n in range(2, 51))

    def test_mobius_matches_sieve(self):
        mob = MultiplicativeFunction.mobius(SYS)
        vals = mob.values_up_to(2000)
        oracle = mobius_sieve(2000)
        assert [int(v) for v in vals[1:]] == oracle[1:]

    def test_one_star_one_counts_divisors(self):
        d = dirichlet_convolve(
            MultiplicativeFunction.one(SYS), MultiplicativeFunction.one(SYS)
        )
        vals = d.values_up_to(300)
        assert all(vals[n] == len(divisors(n)) for n in range(1, 301))
        assert vals[12] == 6

    def test_value_beyond_truncation_rejected(self):
        with pytest.raises(ValidationError, match="exceeds the system truncation"):
            MultiplicativeFunction.one(SYS).values_up_to(10001)

    def test_table_entry_beyond_truncation_rejected(self):
        with pytest.raises(ValidationError):
            MultiplicativeFunction(SYS, {(0, 14): F(1)})  # 2^14 > 10^4

    def test_json_roundtrip_exact(self):
        f = MultiplicativeFunction.from_rule(
            SYS, lambda p, k: F(1, p) if k == 1 else F(0), label="recip"
        )
        f2 = MultiplicativeFunction.from_json(json.loads(json.dumps(f.to_json())))
        assert f2.ppv == f.ppv and f2.label == "recip"
        assert isinstance(f2.prime_power(0, 1), F)

    def test_json_complex_values(self):
        f = MultiplicativeFunction(SYS, {(0, 1): 0.5j, (1, 2): -0.25})
        f2 = MultiplicativeFunction.from_json(f.to_json())
        assert f2.prime_power(0, 1) == 0.5j
        assert f2.prime_power(1, 2) == -0.25


class TestConvolve:
    def test_one_times_mobius_is_unit(self):
        conv = dirichlet_convolve(
            MultiplicativeFunction.one(SYS), MultiplicativeFunction.mobius(SYS)
        )
        vals = conv.values_up_to(10000)
        assert vals[1] == 1
        assert all(vals[n] == 0 for n in range(2, 10001))

    def test_matches_brute_divisor_sums(self):
        f = MultiplicativeFunction.from_rule(
            SYS, lambda p, k: F(1, p) ** k, label="cm"
        )
        g = MultiplicativeFunction.mobius(SYS)
        got = dirichlet_convolve(f, g).values_up_to(1000)
        want = brute_dirichlet_convolve(
            as_dict(f.values_up_to(1000)), as_dict(g.values_up_to(1000)), 1000
        )
        assert all(got[n] == want[n] for n in range(1, 1001))

    def test_commutative_and_associative(self):
        f = MultiplicativeFunction.from_rule(SYS, lambda p, k: F(k, p))
        g = MultiplicativeFunction.mobius(SYS)
        h = MultiplicativeFunction.one(SYS)
        assert dirichlet_convolve(f, g).ppv == dirichlet_convolve(g, f).ppv
        left = dirichlet_convolve(dirichlet_convolve(f, g), h)
        right = dirichlet_convolve(f, dirichlet_convolve(g, h))
        assert left.values_up_to(1000) == right.values_up_to(1000)

    def test_unit_is_identity(self):
        f = MultiplicativeFunction.from_rule(SYS, lambda p, k: F(1, p + k))
        eps = MultiplicativeFunction.unit(SYS)
        assert dirichlet_convolve(eps, f).ppv == f.ppv

    def test_system_mismatch(self):
        other = PrimeSystem.rational_primes(100)
        with pytest.raises(ValidationError):
            dirichlet_convolve(
                MultiplicativeFunction.one(SYS), MultiplicativeFunction.one(other)
            )


class TestInvert:
    def test_inverse_of_one_is_mobius(self):
        inv = invert_multiplicative(MultiplicativeFunction.one(SYS))
        assert inv.values_up_to(3000) == MultiplicativeFunction.mobius(
            SYS
        ).values_up_to(3000)

    def test_completely_multiplicative_inverse(self):
        # f completely multiplicative: f^{-1}(p) = -f(p), zero at k >= 2
        f = MultiplicativeFunction.from_rule(SYS, lambda p, k: F(1, p) ** k)
        inv = invert_multiplicative(f)
        for i in range(len(SYS.primes)):
            assert inv.prime_power(i, 1) == -f.prime_power(i, 1)
            for k in range(2, SYS.max_power(i) + 1):
                assert inv.prime_power(i, k) == 0

    def test_unit_inverts_to_itself(self):
        eps = MultiplicativeFunction.unit(SYS)
        assert invert_multiplicative(eps).ppv == {}

    def test_convolution_identity_to_1e4(self):
        f = MultiplicativeFunction.from_rule(
            SYS, lambda p, k: F(1, p) if k == 1 else F(1, p**3) if k == 2 else F(0)
        )
        conv = dirichlet_convolve(f, invert_multiplicative(f))
        vals = conv.values_up_to(10000)
        assert vals[1] == 1 and all(v == 0 for v in vals[2:])

    def test_invertibility_certificate(self):
        f = MultiplicativeFunction.from_prime_values(SYS, [(2, 1, F(1, 2))])
        rep = euler_invertibility_report(f)
        # 1 + z/2 has min modulus 1/2 on the unit disk
        assert abs(rep[2]["min_modulus"] - 0.5) < 1e-2
        assert rep[2]["lower_bound"] > 0.4

    @settings(max_examples=6, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(1, 4)),
        st.fractions(min_value=-2, max_value=2, max_denominator=8),
        min_size=1, max_size=8))
    def test_every_prime_certificate_matches_oracle(self, table):
        s = PrimeSystem.rational_primes(30)
        f = MultiplicativeFunction(
            s, {(i, k): v for (i, k), v in table.items() if k <= s.max_power(i)})
        rep = euler_invertibility_report(f)
        assert sorted(rep) == sorted({s.primes[i] for i, _ in f.ppv})
        for p, r in rep.items():
            i = s.index_of(p)
            kmax = max(k for j, k in f.ppv if j == i)
            coeffs = [f.prime_power(i, k) for k in range(kmax + 1)]
            want, _ = brute_disk_min(coeffs)
            tol = 1e-12 * (1 + sum(abs(c) for c in coeffs))
            assert abs(r["min_modulus"] - want) <= tol
            assert r["lower_bound"] <= r["min_modulus"]


class TestEulerFactor:
    def test_constant_one_geometric(self):
        s = PrimeSystem.rational_primes(2**20)
        f = MultiplicativeFunction.one(s)
        assert abs(euler_factor(f, 2, 2.0, 20) - 4.0 / 3.0) < 1e-12

    def test_mobius_factor_exact(self):
        f = MultiplicativeFunction.mobius(SYS)
        assert euler_factor(f, 2, 2.0, 13) == 0.75

    def test_unit_factor_is_one(self):
        f = MultiplicativeFunction.unit(SYS)
        assert euler_factor(f, 3, 1.5, 8) == 1.0

    def test_finite_euler_identity(self):
        # product of local factors over p <= 7 equals the sum of f(n) n^{-2}
        # over 7-smooth n, both truncated to the table
        s = PrimeSystem.rational_primes(512)
        f = MultiplicativeFunction.from_rule(s, lambda p, k: F(1, k + 1))
        prod = 1.0 + 0j
        for p in (2, 3, 5, 7):
            prod *= euler_factor(f, p, 2.0, s.max_power(s.index_of(p)))
        vals = f.values_up_to(512)
        total = 0.0
        for n in range(1, 513):
            m = n
            for p in (2, 3, 5, 7):
                while m % p == 0:
                    m //= p
            if m == 1 and vals[n] != 0:
                total += float(vals[n]) / n**2
        # the product expands exactly into the smooth sum except for terms
        # whose prime-power factorization exceeds 512 jointly; bound crudely
        assert abs(prod - total) < 2e-2
        assert abs(prod - total) / abs(prod) < 2e-2


class TestMeanSquare:
    def test_unit_settles_at_zero(self):
        rep = mean_square_report(MultiplicativeFunction.unit(SYS), W1)
        assert rep.sum_sq == 0 and rep.sum_higher == 0
        assert rep.trend_sq == "settled" and rep.trend_higher == "settled"

    def test_prime_zeta_two_partial(self):
        s = PrimeSystem.rational_primes(10**6)
        f = MultiplicativeFunction(
            s, {(i, 1): F(1, p) for i, p in enumerate(s.primes)}
        )
        rep = mean_square_report(f, W1)
        assert abs(rep.sum_sq - 0.4523) < 1e-4
        assert rep.trend_sq == "converging"

    def test_reciprocal_log_divergent_trend(self):
        s = PrimeSystem.rational_primes(10**6)
        f = MultiplicativeFunction(
            s, {(i, 1): 1.0 / math.log(p) for i, p in enumerate(s.primes)}
        )
        rep = mean_square_report(f, W1)
        assert rep.trend_sq == "divergent-trend"

    def test_prime_squares_feed_the_higher_sum(self):
        """f(p^2) = 1/p^2 and f(p) = 0: only the k >= 2 sum moves, to the sum
        of 1/p^2 over p^2 <= x (weight 1)."""
        s = PrimeSystem.rational_primes(10**4)
        f = MultiplicativeFunction(
            s, {(i, 2): F(1, p * p) for i, p in enumerate(s.primes) if p * p <= s.x}
        )
        rep = mean_square_report(f, W1)
        assert rep.sum_sq == 0
        assert rep.sum_higher == pytest.approx(
            sum(1 / p**2 for p in s.primes if p * p <= s.x), rel=1e-12)

    def test_report_json(self):
        rep = mean_square_report(MultiplicativeFunction.mobius(SYS), W1)
        blob = json.loads(json.dumps(rep.to_json()))
        assert set(blob) >= {"sum_sq", "sum_higher", "trend_sq", "trend_higher"}


class TestTailDecompose:
    def rule(self, p, k):
        if k == 1:
            return F(1, p)
        if k == 2:
            return F(1, p**3)
        return F(0)

    def test_reference_decomposition(self):
        f = MultiplicativeFunction.from_rule(SYS, self.rule)
        dec = tail_decompose(f, W1)
        assert dec.p0 == 1 and dec.local == {}
        assert dec.prime_bound == 0.5  # |f(2)| = 1/2 sits exactly on the bound
        assert dec.h.prime_power(0, 2) == F(1, 8) - F(1, 4)
        assert dec.h.prime_power(0, 3) == F(-1, 16)
        assert all(
            dec.h.prime_power(i, 1) == 0 for i in range(len(SYS.primes))
        )
        assert dec.reconstruction_exact
        assert dec.b_inverse_is_mobius_b
        assert dec.norm_certified and dec.h_inverse_norm <= 1.0
        assert dec.truncation_limited

    def test_reconstruction_materializes_exactly(self):
        f = MultiplicativeFunction.from_rule(SYS, self.rule)
        dec = tail_decompose(f, W1)
        g = dirichlet_convolve(dec.b, dec.h)  # no local part here
        assert g.values_up_to(10000) == f.values_up_to(10000)

    def test_b_is_completely_multiplicative(self):
        f = MultiplicativeFunction.from_rule(SYS, self.rule)
        dec = tail_decompose(f, W1)
        for i, k, _ in SYS.iter_prime_powers():
            assert dec.b.prime_power(i, k) == f.prime_power(i, 1) ** k

    def test_constant_one_blocks(self):
        with pytest.raises(PreconditionError) as ei:
            tail_decompose(MultiplicativeFunction.one(SYS), W1)
        assert "9973" in str(ei.value)

    def test_local_part_absorbs_large_small_primes(self):
        # f(2) = 3 forces p0 >= 2; everything else is tame
        def rule(p, k):
            if k > 1:
                return F(0)
            return F(3) if p == 2 else F(1, p)

        f = MultiplicativeFunction.from_rule(SYS, rule)
        dec = tail_decompose(f, W1)
        assert dec.p0 == 2
        assert 2 in dec.local and dec.local[2][1] == F(3)
        assert dec.b.prime_power(0, 1) == 0  # p = 2 excluded from the tail
        assert dec.reconstruction_exact
        full = dirichlet_convolve(
            dirichlet_convolve(dec.b, dec.h),
            MultiplicativeFunction(SYS, {(0, k): v for k, v in dec.local[2].items()}),
        )
        assert full.values_up_to(5000) == f.values_up_to(5000)

    def test_tail_sum_condition_can_move_p0(self):
        # huge higher-power mass at p = 2 only; primes themselves are tame
        def rule(p, k):
            if k == 1:
                return F(1, p)
            return F(5) if (p == 2 and k == 2) else F(0)

        f = MultiplicativeFunction.from_rule(PrimeSystem.rational_primes(100), rule)
        dec = tail_decompose(f, weights.one())
        assert dec.p0 == 2  # h(4) = 5 - 1/4 must fall into the local part
        assert dec.tail_sum <= 0.5

    def test_reconstruction_certificate_can_fail(self, monkeypatch):
        h_value = arithmetic._tail_h_value
        monkeypatch.setattr(arithmetic, "_tail_h_value",
                            lambda f, i, k: h_value(f, i, k) + F(1, 10**6))
        f = MultiplicativeFunction.from_rule(PrimeSystem.rational_primes(100), self.rule)
        dec = tail_decompose(f, W1)
        assert not dec.reconstruction_exact and dec.b_inverse_is_mobius_b

    def test_mobius_certificate_can_fail(self, monkeypatch):
        invert = arithmetic.invert_multiplicative

        def inverse_off_at_4(g):
            inv = invert(g)
            return MultiplicativeFunction(
                g.system, {**inv.ppv, (0, 2): inv.prime_power(0, 2) + F(1, 10**6)})

        monkeypatch.setattr(arithmetic, "invert_multiplicative", inverse_off_at_4)
        f = MultiplicativeFunction.from_rule(PrimeSystem.rational_primes(100), self.rule)
        dec = tail_decompose(f, W1)
        assert dec.reconstruction_exact and not dec.b_inverse_is_mobius_b

    def test_decomposition_json(self):
        f = MultiplicativeFunction.from_rule(SYS, self.rule)
        blob = json.loads(json.dumps(tail_decompose(f, W1).to_json()))
        assert blob["p0"] == 1 and blob["reconstruction_exact"] is True


class TestOmegaRelated:
    def test_same_function_gives_unit(self):
        f = MultiplicativeFunction.from_rule(SYS, lambda p, k: F(1, p) ** k)
        rep = omega_related(f, f, W1)
        assert rep.partial_norm == 1.0
        assert rep.trend == "settled"
        assert rep.h.ppv == {}

    def test_mobius_versus_unit_diverges(self):
        rep = omega_related(
            MultiplicativeFunction.mobius(SYS), MultiplicativeFunction.unit(SYS), W1
        )
        squarefree = sum(1 for v in mobius_sieve(10000)[1:] if v != 0)
        assert rep.partial_norm == float(squarefree)
        assert rep.trend == "divergent-trend"

    def test_small_perturbation_converges(self):
        f = MultiplicativeFunction.from_rule(SYS, lambda p, k: F(1, p) ** k)

        def rule(p, k):
            v = F(1, p) ** k
            return v + F(1, p**3) if k == 1 else v

        g = MultiplicativeFunction.from_rule(SYS, rule)
        rep = omega_related(g, f, W1)
        assert rep.trend in ("converging", "settled")
        assert rep.partial_norm < 1.6


@st.composite
def small_mf(draw):
    s = PrimeSystem.rational_primes(60)
    ppv = {}
    for i in range(len(s.primes)):
        for k in range(1, s.max_power(i) + 1):
            if draw(st.booleans()):
                num = draw(st.integers(min_value=-4, max_value=4))
                den = draw(st.sampled_from([1, 2, 3, 5]))
                if num != 0:
                    ppv[(i, k)] = F(num, den)
    return MultiplicativeFunction(s, ppv)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_mf(), small_mf())
    def test_convolution_matches_brute_force(self, f, g):
        got = dirichlet_convolve(f, g).values_up_to(60)
        want = brute_dirichlet_convolve(
            as_dict(f.values_up_to(60)), as_dict(g.values_up_to(60)), 60
        )
        assert all(got[n] == want[n] for n in range(1, 61))

    @settings(max_examples=40, deadline=None)
    @given(small_mf())
    def test_inverse_is_two_sided(self, f):
        inv = invert_multiplicative(f)
        for conv in (dirichlet_convolve(f, inv), dirichlet_convolve(inv, f)):
            vals = conv.values_up_to(60)
            assert vals[1] == 1 and all(v == 0 for v in vals[2:])

    @settings(max_examples=30, deadline=None)
    @given(small_mf(), small_mf())
    def test_product_of_values_at_coprime_arguments(self, f, g):
        h = dirichlet_convolve(f, g).values_up_to(50)
        for a, b in ((4, 9), (8, 5), (3, 16), (25, 2)):
            assert h[a * b] == h[a] * h[b]
