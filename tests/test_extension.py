"""Character extension pipeline: modulus fit, vanishing functional,
dual-basis construction and full round trips."""

import cmath
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from dirichlet_forge import exact_lp
from dirichlet_forge.cones import basis_through_point, dual_cone
from dirichlet_forge.errors import PreconditionError, ValidationError
from dirichlet_forge.extension import (BOUND_TOL, PHASE_TOL, CharacterExtensionProblem,
                                       CharacterExtensionResult, build_dual_basis,
                                       combine_zeta, extend_character,
                                       modulus_functional, polar_split,
                                       zero_set_separation, _fit_phases, _integer_rescale,
                                       _shift_modulus_nonnegative)
from dirichlet_forge.ratlin import dot, rank
from tests.oracles import brute_fit_phases, brute_integer_rescale


def test_problem_validation():
    with pytest.raises(ValidationError):
        CharacterExtensionProblem(1, [(1,)], {0: 1.5})       # modulus > 1
    with pytest.raises(ValidationError):
        CharacterExtensionProblem(2, [(0, 0)], {})           # zero generator
    with pytest.raises(ValidationError):
        CharacterExtensionProblem(1, [(1,)], {3: 0.5})       # index out of range
    with pytest.raises(ValidationError):
        CharacterExtensionProblem(2, [(1,)], {})             # wrong length
    with pytest.raises(ValidationError):
        CharacterExtensionProblem(1, [(F(-1, 2),)], {})      # negative coordinate


def test_problem_construction_solves_no_lp(monkeypatch):
    # nonzero generators in the closed orthant span a pointed cone: the
    # coordinate sum is positive on each, so no separation LP is needed
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(exact_lp, "solve_standard", no_lp)
    for gens in ([(1,)], [(2, 1), (1, 2), (1, 1)], [(0, 3), (5, 0), (0, 1)],
                 [(1, 0, 0), (0, F(1, 2), 0), (0, 0, 1), (1, 1, 1)]):
        prob = CharacterExtensionProblem(len(gens[0]), gens, {0: 0.5})
        assert CharacterExtensionProblem.from_json(prob.to_json()) == prob


@pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, 0.0), math.nan])
def test_problem_rejects_non_finite_values(value):
    with pytest.raises(ValidationError, match="not finite"):
        CharacterExtensionProblem(1, [(1,)], {0: value})
    with pytest.raises(ValidationError, match="not finite"):
        CharacterExtensionProblem.from_json(
            {"dim": 1, "generators": [["1"]],
             "prescribed": {"0": {"re": complex(value).real, "im": complex(value).imag}}})


def test_problem_json_roundtrip():
    p = CharacterExtensionProblem(2, [(1, 0), (F(1, 2), 1)], {0: 0.5j, 1: 0.0})
    q = CharacterExtensionProblem.from_json(p.to_json())
    assert q.gamma == p.gamma and q.dim == p.dim
    assert q.prescribed == p.prescribed


def test_polar_split():
    moduli, phases, zeros = polar_split({0: 0.5j, 2: 0.0, 1: -0.25})
    assert zeros == (2,)
    assert moduli[0] == 0.5 and abs(phases[0] - math.pi / 2) < 1e-15
    assert moduli[1] == 0.25 and abs(phases[1] - math.pi) < 1e-15


def test_modulus_functional_exact_fit():
    gamma = [(F(2), F(1)), (F(1), F(2)), (F(1), F(1))]
    fit = modulus_functional(gamma, {0: math.exp(-2.0), 1: math.exp(-1.0)})
    assert abs(fit.functional[0] - 1.0) < 1e-12
    assert abs(fit.functional[1]) < 1e-12
    # the fit reproduces -log|psi| on the prescribed generators
    assert abs(fit.values[0] - 2.0) < 1e-12 and abs(fit.values[1] - 1.0) < 1e-12
    assert abs(fit.values[2] - 1.0) < 1e-12
    assert fit.nonneg_on_prescribed


def test_modulus_functional_relation_inconsistency():
    # (1,1) = (1,0) + (0,1) forces m_2 = m_0 m_1
    gamma = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    with pytest.raises(PreconditionError):
        modulus_functional(gamma, {0: 0.5, 1: 0.5, 2: 0.9})
    fit = modulus_functional(gamma, {0: 0.5, 1: 0.5, 2: 0.25})
    for v, m in zip(fit.values, (0.5, 0.5, 0.25)):
        assert abs(v + math.log(m)) < 1e-12


def test_modulus_functional_empty():
    fit = modulus_functional([(F(1), F(0))], {})
    assert fit.functional == (0.0, 0.0) and fit.values == (0.0,)


def test_zero_set_separation_quadrant():
    gamma = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    fit = zero_set_separation(gamma, [0], [1])
    assert fit.values[0] == 0                 # vanishes on the positive span
    assert fit.values[1] == 1                 # canonical: strict minimum is 1
    assert fit.values[2] == 1
    assert fit.functional == (0, 1)
    assert all(isinstance(v, F) for v in fit.values)


def test_zero_set_separation_in_span_raises():
    gamma = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    with pytest.raises(PreconditionError):
        zero_set_separation(gamma, [0, 1], [2])


def test_zero_set_separation_no_strict():
    gamma = [(F(1), F(0)), (F(0), F(1))]
    fit = zero_set_separation(gamma, [0], [])
    assert all(v == 0 for v in fit.functional)


def test_combine_zeta():
    assert combine_zeta([1.0, 0.5], [F(0), F(1)]) == 0
    assert combine_zeta([-2.2, 1.0], [F(1), F(0)]) == 3
    assert combine_zeta([-1e-10], [F(0)]) == 0       # within BOUND_TOL
    with pytest.raises(PreconditionError):
        combine_zeta([-1.0], [F(0)])


def test_build_dual_basis_invariants():
    gamma = [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    theta = (F(0), F(1))
    res = build_dual_basis(gamma, theta, (math.log(2.0), 0.0))
    # dual pairing: functionals times basis vectors is the identity
    d = len(res.functionals)
    for i in range(d):
        for j in range(d):
            assert dot(res.functionals[i], res.basis_vectors[j]) == (1 if i == j else 0)
    # theta leads: positive on exactly the first auxiliary generator
    assert res.theta_on_basis[0] > 0
    assert all(v == 0 for v in res.theta_on_basis[1:])
    for ex in res.exponents:
        assert all(isinstance(e, int) and e >= 0 for e in ex)
    # exponents reconstruct each generator over the basis
    for g, ex in zip(gamma, res.exponents):
        rec = [sum(e * b[j] for e, b in zip(ex, res.basis_vectors))
               for j in range(len(g))]
        assert tuple(rec) == g


@pytest.mark.parametrize("gamma, zeta", [
    # zeta annihilates the ray (2, 1), and the ray (1, 0) only ambiguously;
    # its projection onto the face of (2, 1), the dual ray (1, -2), is a
    # negative multiple of that ray (the zeta of prescribed moduli
    # 1 - 2.9e-12 and 1 - 1.1e-12 on the two generators)
    ([(2, 1), (1, 0)], (1.1e-12, 0.7e-12)),
    # zeta is negative by rounding on the generator (0, 1)
    ([(1, 0), (0, 1)], (1.0, -1e-10)),
])
def test_build_dual_basis_shrinks_the_face_until_it_holds_zeta(gamma, zeta):
    gamma = [tuple(map(F, g)) for g in gamma]
    res = build_dual_basis(gamma, (F(0), F(0)), zeta)
    # the one ambiguous ray is made tight by the shrinking: no flag
    assert res.flags == ()
    assert min(res.zeta_on_basis) >= -1e-10
    for g, ex in zip(gamma, res.exponents):
        assert all(isinstance(e, int) and e >= 0 for e in ex)
        assert tuple(sum(e * b[j] for e, b in zip(ex, res.basis_vectors))
                     for j in range(2)) == g


def test_extend_character_zero_and_phase():
    p = CharacterExtensionProblem(2, [(1, 0), (0, 1), (1, 1)], {0: 0.5j, 1: 0.0})
    r = extend_character(p)
    assert abs(r.phi_gamma[0] - 0.5j) < 1e-12
    assert r.phi_gamma[1] == 0 and r.phi_gamma[2] == 0
    assert r.prescribed_residual < 1e-12
    assert all(abs(z) <= 1 + 1e-9 for z in r.phi_basis)


def test_extend_character_dependent_generators():
    p = CharacterExtensionProblem(2, [(2, 1), (1, 2), (1, 1)],
                                  {0: math.exp(-2.0), 1: math.exp(-1.0)})
    r = extend_character(p)
    assert abs(r.phi_gamma[2] - math.exp(-1.0)) < 1e-9
    assert r.c == 0


def test_extend_character_lower_dimensional_span():
    p = CharacterExtensionProblem(3, [(1, 0, 1), (0, 1, 1), (1, 1, 2)],
                                  {2: 0.25 * cmath.exp(0.3j)})
    r = extend_character(p)
    assert r.working_dim == 2
    assert r.prescribed_residual < 1e-9
    assert any("re-coordinatized" in f for f in r.flags)
    # auxiliary vectors still live in ambient Q^3 and reconstruct the input
    for g, ex in zip(p.gamma, r.exponents):
        rec = [sum(e * b[j] for e, b in zip(ex, r.basis_vectors))
               for j in range(3)]
        assert tuple(rec) == g


def test_extend_character_unbounded_moduli_rejected():
    # values on (2,1) and (1,2) force modulus e^3 > 1 on (3,0)
    p = CharacterExtensionProblem(2, [(2, 1), (1, 2), (3, 0)],
                                  {0: 1.0, 1: math.exp(-3.0)})
    with pytest.raises(PreconditionError):
        extend_character(p)


def test_extend_character_moves_modulus_functional_off_negative_generators():
    # a restriction of a bounded character: the min-norm modulus functional
    # is negative on generator 0, and no functional vanishing on the
    # prescribed span is positive there while nonnegative on the rest
    gens = [(5, 0, F(1, 2)), (5, 2, 3), (2, F(4, 3), 6), (3, 4, F(2, 3)), (4, 4, 0),
            (F(2, 3), 6, F(3, 2))]
    p = CharacterExtensionProblem(3, gens, {3: 0.0375281908651613 + 0.07300398543554655j,
                                            4: 0.019878941775754343 + 0.13386734688717167j})
    assert modulus_functional(p.gamma, polar_split(p.prescribed)[0]).values[0] < 0
    r = extend_character(p)
    assert r.prescribed_residual < 1e-9
    assert min(r.modulus.values) >= -1e-9 and r.flags == ()
    assert all(abs(z) <= 1 + 1e-9 for z in r.phi_basis)
    for g, ex in zip(p.gamma, r.exponents):
        assert all(e >= 0 for e in ex)
        assert tuple(sum(e * b[j] for e, b in zip(ex, r.basis_vectors))
                     for j in range(3)) == g


def test_shift_modulus_nonnegative_reaches_a_single_feasible_point():
    # seed 55246: the true modulus functional is 0 on generators 2 and 4, and
    # the one direction vanishing on the prescribed generators moves the fit
    # up on one and down on the other, so only one move keeps both >= 0; the
    # fit's rounding leaves no exact move, one within BOUND_TOL
    p = _random_roundtrip(55246)
    moduli = polar_split(p.prescribed)[0]
    fit = modulus_functional(p.gamma, moduli)
    flat = [0, 1, 2, 4]
    assert sorted(moduli) == [3, 5] and fit.values[2] < -BOUND_TOL
    moved = _shift_modulus_nonnegative(fit, p.gamma, sorted(moduli), flat)
    assert min(moved.values[j] for j in flat) >= -BOUND_TOL
    for i, m in moduli.items():
        assert abs(moved.values[i] + math.log(m)) < 1e-12


def test_basis_off_the_orthant_still_reconstructs_generators():
    # cone over the unit square: the dual face is not simplicial and the
    # dualized basis leaves the positive orthant
    p = CharacterExtensionProblem(3, [(1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 1)], {})
    r = extend_character(p)
    assert any(x < 0 for b in r.basis_vectors for x in b)
    # the exponent maps still reconstruct every generator exactly
    for g, ex in zip(p.gamma, r.exponents):
        rec = [sum(e * b[j] for e, b in zip(ex, r.basis_vectors))
               for j in range(3)]
        assert tuple(rec) == g


def test_phi_on_a_generator_is_the_product_over_its_word():
    # phi(gamma_i) is prod_j phi(b_j)^{e_ij} over gamma_i's word in the
    # auxiliary basis, so phi is multiplicative on the generators
    p = CharacterExtensionProblem(2, [(2, 1), (1, 2), (1, 1)],
                                  {0: 0.25, 1: 0.5})
    r = extend_character(p)
    for ex, z in zip(r.exponents, r.phi_gamma):
        word = 1.0 + 0j
        for e, zb in zip(ex, r.phi_basis):
            word *= zb ** e
        assert abs(word - z) < 1e-12
    assert abs(r.phi_gamma[0] - 0.25) < 1e-12 and abs(r.phi_gamma[1] - 0.5) < 1e-12
    # 3 gamma_2 = gamma_0 + gamma_1
    assert abs(r.phi_gamma[2] ** 3 - 0.125) < 1e-12


def test_phase_fit_needs_nonzero_multiple():
    om0 = (5.1, -4.7)
    gens = [(1, 0), (0, 1), (2, 3), (1, 1)]
    pres = {}
    for i, g in enumerate(gens):
        ov = sum(o * x for o, x in zip(om0, g))
        zv = 0.3 * g[0] + 0.8 * g[1]
        pres[i] = math.exp(-zv) * cmath.exp(1j * ov)
    r = extend_character(CharacterExtensionProblem(2, gens, pres))
    assert r.prescribed_residual < 1e-9
    assert not any("heuristically" in f for f in r.flags)


def test_phase_fit_heuristic_fallback():
    # omega_1 + omega_2 is pinned to 0.15 mod pi by the first two rows;
    # a target off by pi/2 cannot be matched by any integer multiples
    rows = [(2, 0), (0, 2), (1, 1)]
    targets = [0.1, 0.2, 0.15 + math.pi / 2]
    _, heuristic = _fit_phases(rows, targets, 2)
    assert heuristic


def _phase_residual(rows, targets, omega):
    return max((abs(cmath.phase(cmath.exp(1j * (sum(e * w for e, w in zip(row, omega)) - t))))
                for row, t in zip(rows, targets)), default=0.0)


def test_phase_fit_finds_multiples_past_the_old_box():
    # a restriction of a real character whose fit needs the multiple 9,
    # outside the [-8, 8] box the search used to scan
    w = 2 * math.pi * 9 / 19 + 0.01
    r = extend_character(CharacterExtensionProblem(
        1, ((19,), (1,)), {0: cmath.exp(19j * w), 1: cmath.exp(1j * w)}))
    assert r.prescribed_residual < 1e-12 and r.flags == ()


def test_extend_character_flags_inconsistent_phases():
    # (1,1) = (1,0) + (0,1), but its phase is not the sum of theirs
    p = CharacterExtensionProblem(2, [(1, 0), (0, 1), (1, 1)],
                                  {0: 0.5 * cmath.exp(0.3j), 1: 0.5 * cmath.exp(0.4j),
                                   2: 0.25 * cmath.exp(1.2j)})
    r = extend_character(p)
    assert any("phases are inconsistent" in f for f in r.flags)
    assert r.prescribed_residual > 1e-3


@pytest.mark.parametrize("seed", [508, 1189, 1227])
def test_roundtrip_seeds_with_large_exponents(seed):
    # exponents up to 24624 (seed 1227): a fit that reads its multiples off
    # unreduced transforms loses these to rounding
    r = extend_character(_random_roundtrip(seed))
    assert r.prescribed_residual < 1e-9 and r.flags == ()


exponent_systems = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda mn: st.tuples(
        st.lists(st.lists(st.integers(0, 30), min_size=mn[1], max_size=mn[1]),
                 min_size=mn[0], max_size=mn[0]),
        st.lists(st.floats(-10.0, 10.0), min_size=mn[1], max_size=mn[1])))


@settings(max_examples=300, deadline=None)
@given(exponent_systems)
def test_phase_fit_solves_every_consistent_system(system):
    rows, omega0 = system
    targets = [cmath.phase(cmath.exp(1j * sum(e * w for e, w in zip(row, omega0))))
               for row in rows]
    omega, inconsistent = _fit_phases(rows, targets, len(omega0))
    assert not inconsistent
    assert _phase_residual(rows, targets, omega) <= PHASE_TOL
    assert all(abs(w) <= math.pi for w in omega)


@settings(max_examples=150, deadline=None)
@given(exponent_systems.filter(lambda s: 0 < rank(s[0]) <= 3), st.data())
def test_phase_fit_succeeds_wherever_the_box_search_does(system, data):
    # targets from a character, some of them moved: the system may or may
    # not stay consistent; the box search covers the multiples up to 8
    rows, omega0 = system
    targets = [cmath.phase(cmath.exp(1j * (sum(e * w for e, w in zip(row, omega0))
                                            + data.draw(st.sampled_from([0.0, 0.0, 0.7])))))
               for row in rows]
    omega, inconsistent = _fit_phases(rows, targets, len(omega0))
    _, box_failed = brute_fit_phases(rows, targets, len(omega0))
    if not box_failed:
        assert not inconsistent and _phase_residual(rows, targets, omega) <= PHASE_TOL
    if inconsistent:
        assert box_failed


def test_phase_fit_of_the_widest_warm_up_case_stays_small():
    # d = 4, every value prescribed and nonzero: the box search held a
    # 17^4-candidate array here (23.6 MB traced peak)
    gens = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, 1, 0, 0), (0, 1, 1, 1), (1, 0, 2, 1)]
    omega = (0.3, -0.7, 0.5, 0.9)
    p = CharacterExtensionProblem(4, gens, {
        i: 0.8 ** sum(g) * cmath.exp(1j * sum(o * x for o, x in zip(omega, g)))
        for i, g in enumerate(gens)})
    extend_character(p)                     # imports and caches outside the trace
    tracemalloc.start()
    try:
        r = extend_character(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.prescribed_residual < 1e-12
    assert peak < 2 * 2 ** 20


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
@example(55246)         # extends only through the modulus functional's shift
def test_integer_rescale_matches_the_fraction_loop(seed):
    # full-dimensional problems work in the input coordinates
    p = _random_roundtrip(seed)
    r = extend_character(p)
    if r.working_dim < p.dim:
        return
    assert _integer_rescale(r.dual_functionals, p.gamma) == (r.dual_functionals, r.exponents)
    rows = [tuple(x * F(1, i + 2) for x in row) for i, row in enumerate(r.dual_functionals)]
    assert _integer_rescale(rows, p.gamma) == brute_integer_rescale(rows, p.gamma)


def test_result_json_shape():
    p = CharacterExtensionProblem(2, [(1, 0), (0, 1)], {0: 0.5})
    r = extend_character(p)
    data = r.to_json()
    assert len(data["basis_vectors"]) == r.working_dim
    assert len(data["phi_gamma"]) == len(p.gamma)
    assert data["c"] == r.c
    assert isinstance(data["flags"], list)


def _random_roundtrip(seed: int):
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    k = rng.randint(2, 8)
    gens, seen = [], set()
    while len(gens) < k:
        g = tuple(F(rng.randint(0, 6), rng.choice([1, 1, 2, 3])) for _ in range(d))
        if any(x > 0 for x in g) and g not in seen:
            seen.add(g)
            gens.append(g)
    zeta0 = tuple(F(rng.randint(0, 4), 2) for _ in range(d))
    omega0 = tuple(rng.uniform(-1.0, 1.0) for _ in range(d))
    theta0 = tuple(F(rng.randint(0, 2)) if rng.random() < 0.4 else F(0)
                   for _ in range(d))

    def phi0(g):
        if sum(t * x for t, x in zip(theta0, g)) > 0:
            return 0j
        zv = sum(float(z) * float(x) for z, x in zip(zeta0, g))
        ov = sum(o * float(x) for o, x in zip(omega0, g))
        return math.exp(-zv) * cmath.exp(1j * ov)

    idx = rng.sample(range(k), rng.randint(1, k))
    return CharacterExtensionProblem(d, gens, {i: phi0(gens[i]) for i in idx})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
# zeta on a face of the dual cone: walked through a nearby point, these gave
# basis values of modulus 1 + 6.7e-6, 1 + 9.1e-6 and 1 + 8.1e-7
@example(977)
@example(36016)
@example(60599)
# the modulus functional's shift has a single feasible point, met only
# within BOUND_TOL
@example(55246)
def test_roundtrip_property(seed):
    """Restricting a true bounded character and extending recovers it on the
    prescribed set, with a bounded multiplicative result."""
    p = _random_roundtrip(seed)
    r = extend_character(p)
    assert r.prescribed_residual < 1e-9
    assert all(abs(z) <= 1 + 1e-9 for z in r.phi_basis)
    for g, ex in zip(p.gamma, r.exponents):
        assert all(e >= 0 for e in ex)
        rec = [sum(e * b[j] for e, b in zip(ex, r.basis_vectors))
               for j in range(p.dim)]
        assert tuple(rec) == g
    # induced values are multiplicative: value on gamma_i + gamma_j (as an
    # exponent sum) is the product of the generator values
    if len(p.gamma) >= 2:
        z01 = complex(1.0)
        for e, zb in zip([a + b for a, b in zip(r.exponents[0], r.exponents[1])],
                         r.phi_basis):
            if e:
                z01 = 0j if zb == 0 else z01 * zb ** e
        prod = r.phi_gamma[0] * r.phi_gamma[1]
        assert abs(z01 - prod) < 1e-9 * (1.0 + abs(prod))


_nonneg = st.fractions(min_value=F(0), max_value=F(4), max_denominator=3)


@st.composite
def _orthant_cones(draw):
    """Nonzero rational generators in the nonnegative orthant of Q^d, d <= 4,
    and a nonnegative combination of them."""
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[_nonneg] * d).filter(any), min_size=1, max_size=6))
    cs = draw(st.lists(_nonneg, min_size=len(gens), max_size=len(gens)))
    return d, gens, tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(d))


def _exact(xs):
    return all(type(x) in (int, F) for x in xs)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), _orthant_cones())
def test_exact_outputs_hold_no_float(seed, cone):
    """Dual rays are ints; walk results, dual bases and theta are ints or
    Fractions, and the walk's coefficients rebuild its point exactly."""
    d, gens, eta = cone
    for g in (gens, gens + [tuple(-x for x in gens[0])]):    # pointed, and a line
        assert all(type(x) is int for r in dual_cone(g, dim=d).rays for x in r)
    if any(eta):
        for first in (None, gens[0]):
            res = basis_through_point(gens, eta, first=first)
            assert all(_exact(v) for v in res.vectors) and _exact(res.coefficients)
            assert tuple(sum(c * v[j] for c, v in zip(res.coefficients, res.vectors))
                         for j in range(d)) == eta
    try:
        r = extend_character(_random_roundtrip(seed))
    except PreconditionError:
        return
    assert all(_exact(b) for b in r.basis_vectors)
    assert all(_exact(row) for row in r.dual_functionals)
    assert _exact(r.theta_basis)
