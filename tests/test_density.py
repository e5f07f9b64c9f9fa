"""Kronecker phase alignment and the point-character search."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dirichlet_forge.algebra import evaluate_series, from_coeffs
from dirichlet_forge.characters import Character, functional
from dirichlet_forge import density
from dirichlet_forge.density import (DensitySearchReport, KroneckerInstance,
                                     KroneckerResult, _first_hit, _gate,
                                     _kron_errors, _lattice_steps,
                                     approximate_functional, kronecker_t)
from dirichlet_forge.errors import PreconditionError, ValidationError
from dirichlet_forge.semigroup import (log_element, log_primes_basis,
                                       natural_basis)
from tests.oracles import scan_kronecker_t

LN2, LN3 = math.log(2.0), math.log(3.0)


def test_kronecker_validation():
    with pytest.raises(ValidationError):
        KroneckerInstance((1.0,), (0.5,))          # not unimodular
    with pytest.raises(ValidationError):
        KroneckerInstance((0.0,), (1.0,))          # beta <= 0
    with pytest.raises(ValidationError):
        KroneckerInstance((1.0,), (1.0, 1.0))      # length mismatch
    with pytest.raises(ValidationError):
        KroneckerInstance((1.0,), (1.0,), theta=0.0)
    for budget in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            KroneckerInstance((1.0,), (1.0,), t_budget=budget)
    with pytest.raises(ValidationError):
        KroneckerInstance.from_json({"betas": [1.0], "targets": [{"re": 1.0, "im": 0.0}],
                                     "t_budget": 1e400})


def test_kronecker_closed_form_minus_one():
    res = kronecker_t(KroneckerInstance((1.0,), (-1.0,)))
    assert abs(res.t - math.pi) < 1e-12
    assert res.max_error < 1e-12 and not res.exhausted


def test_kronecker_closed_form_quarter():
    # e^{-2it} = i at t = -pi/4 (mod pi); normalized representative 3pi/4
    res = kronecker_t(KroneckerInstance((2.0,), (1j,)))
    assert res.max_error < 1e-12
    assert abs((res.t - (-math.pi / 4)) % math.pi) < 1e-12


def test_kronecker_two_frequencies():
    res = kronecker_t(KroneckerInstance((LN2, LN3), (-1.0, 1.0), 1e-2, 10 ** 6))
    assert res.max_error < 1e-2 and not res.exhausted
    # per-coordinate re-evaluation invariant
    for b, z, e in zip((LN2, LN3), (-1.0, 1.0), res.errors):
        assert abs(abs(cmath.exp(-1j * b * res.t) - z) - e) < 1e-15


def test_kronecker_budget_monotone():
    inst_small = KroneckerInstance((LN2, LN3), (-1.0, 1.0), 1e-9, 2000)
    inst_big = KroneckerInstance((LN2, LN3), (-1.0, 1.0), 1e-9, 50000)
    assert kronecker_t(inst_big).max_error <= kronecker_t(inst_small).max_error + 1e-15
    # three frequencies whose eighth lattice candidate is the first to
    # certify: budgets 1, 2, 3, ... cut inside the candidate list
    betas = (LN2, LN3, math.log(5.0))
    targets = tuple(cmath.exp(2j * math.pi * x / 12) for x in (11, 0, 10))
    full = kronecker_t(KroneckerInstance(betas, targets, 1e-2, 10 ** 6))
    assert full.steps == 8 and not full.exhausted
    errors = [kronecker_t(KroneckerInstance(betas, targets, 1e-2, budget)).max_error
              for budget in range(1, 12)]
    assert all(b <= a for a, b in zip(errors, errors[1:]))
    assert errors[6] > 1e-2 >= errors[7] == full.max_error


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
ANGLES = st.one_of(st.floats(-math.pi, math.pi),
                   st.sampled_from([0.0, math.pi, math.pi / 2, -math.pi / 2]))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda k: st.lists(
    st.sampled_from(SMALL_PRIMES), min_size=k, max_size=k, unique=True)),
       st.lists(ANGLES, min_size=3, max_size=3))
def test_kronecker_lattice_certifies_where_the_scan_does(primes, angles):
    inst = KroneckerInstance(tuple(math.log(p) for p in primes),
                             tuple(cmath.exp(1j * a) for a in angles[:len(primes)]),
                             1e-2, 10 ** 6)
    res = kronecker_t(inst)
    assert res.t >= 0.0
    assert res.errors == _kron_errors(inst.betas, inst.targets, res.t)
    assert res.max_error == max(res.errors) and res.exhausted == (res.max_error > 1e-2)
    if res.exhausted:
        assert scan_kronecker_t(inst).exhausted
    else:
        assert res.steps <= 64


@pytest.mark.parametrize("p", [3, 5, 29])
def test_kronecker_two_frequencies_take_the_first_aligned_step(p):
    # the continued-fraction candidate is the smallest step n >= 0 whose
    # phase error is at most 3 theta / 4, and it certifies in one step
    theta = 0.05
    inst = KroneckerInstance((LN2, math.log(p)), (1j, cmath.exp(-2.0j)), theta, 10 ** 6)
    res = kronecker_t(inst)
    assert res.steps == 1 and not res.exhausted
    period = 2.0 * math.pi / LN2
    t0 = (-math.pi / 2 / LN2) % period
    n = round((res.t - t0) / period)
    window = 3.0 * theta / 4.0

    def phase_error(m):
        x = (-math.log(p) * (t0 + period * m) + 2.0) / (2.0 * math.pi)
        return 2.0 * math.pi * abs(x - round(x))

    assert phase_error(n) <= window * (1 + 1e-9)
    assert all(phase_error(m) > window * (1 - 1e-9) for m in range(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200).flatmap(lambda q: st.tuples(
    st.just(q), st.integers(0, 3 * q),
    st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)).map(sorted))))
def test_first_hit_is_the_smallest_solution(args):
    q, a, (lo, hi) = args
    want = next((x for x in range(q) if lo <= a * x % q <= hi), None)
    assert _first_hit(a, q, lo, hi) == want


def test_kronecker_precision_cap_stops_the_scan():
    # t max(beta) 2^-52 <= theta / 8 keeps t below about 51 at theta = 1e-13:
    # the aligned arm ends after a few steps and the uniform arm with it
    inst = KroneckerInstance((LN2, LN3), (-1.0, 1j), 1e-13, 10 ** 6)
    res = kronecker_t(inst)
    assert res.exhausted and res.steps < 100
    assert res.t * LN3 * 2.0 ** -52 <= 1e-13 / 8


@pytest.mark.parametrize("theta", [3.0, 1e300, math.inf])
def test_kronecker_theta_above_two_certifies_at_once(theta):
    # no error exceeds 2: the lattice stage runs at theta = 2 and its first
    # candidate certifies
    for betas in ((LN2, LN3), (LN2, LN3, math.log(5.0))):
        res = kronecker_t(KroneckerInstance(betas, (-1.0,) * len(betas), theta, 100))
        assert res.steps == 1 and not res.exhausted


def test_kronecker_gate_leaves_the_scan_alone():
    # at theta = 1e-9 no aligned step within the cap can plausibly reach
    # theta, so the search is the scan, step for step
    inst = KroneckerInstance((LN2, LN3), (0.6 + 0.8j, -1j), 1e-9, 2000)
    res, want = kronecker_t(inst), scan_kronecker_t(inst)
    assert res == want and res.exhausted


PRIMES_TO_59 = SMALL_PRIMES + (31, 37, 41, 43, 47, 53, 59)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).flatmap(lambda k: st.lists(
    st.sampled_from(PRIMES_TO_59), min_size=k, max_size=k, unique=True)),
       st.lists(ANGLES, min_size=12, max_size=12), st.floats(-8.0, 0.0))
def test_gate_agrees_with_the_lattice_stage(primes, angles, log_theta):
    inst = KroneckerInstance(tuple(math.log(p) for p in primes),
                             tuple(cmath.exp(1j * a) for a in angles[:len(primes)]),
                             10.0 ** log_theta)
    t0, _, n_cap, log_scales = _gate(inst)
    steps = list(_lattice_steps(inst.betas, inst.targets, inst.theta, t0, n_cap,
                                log_scales))
    assert all(0 <= n <= n_cap for n in steps)
    # two admitted frequencies get their one exact step, or none when it
    # lies past the cap
    if len(primes) >= 3 or not log_scales:
        assert bool(steps) == bool(log_scales)


def test_kronecker_dependent_betas_exhaust():
    # e^{-it} = 1 forces e^{-2it} = 1, so the pair (1, -1) stays at error 1
    res = kronecker_t(KroneckerInstance((1.0, 2.0), (1.0, -1.0), 1e-2, 20000))
    assert res.exhausted and res.max_error > 0.5


def test_kronecker_json_roundtrip():
    inst = KroneckerInstance((LN2, LN3), (1j, -1.0), 1e-3, 500)
    again = KroneckerInstance.from_json(inst.to_json())
    assert again.betas == inst.betas and again.targets == inst.targets
    assert again.theta == inst.theta and again.t_budget == inst.t_budget


def test_density_from_s_quick_path():
    nb = log_primes_basis(10)
    a = from_coeffs(nb, {log_element(nb, n): 1.0 / n for n in (1, 2, 3, 5, 6)})
    psi = Character.from_s(nb, 0.7 + 1.3j)
    rep = approximate_functional(a, psi, 1e-2, 10 ** 5)
    assert rep.s == 0.7 + 1.3j
    assert rep.achieved_error < 1e-12 and not rep.exhausted
    assert rep.steps == 1


def test_density_single_generator_exact_log():
    basis = natural_basis()
    d1 = from_coeffs(basis, {basis.generator_element(0): 1.0})
    z = 0.3 - 0.4j
    rep = approximate_functional(d1, Character(basis, (z,)), 1e-2, 10 ** 5)
    assert abs(rep.s - (-cmath.log(z))) < 1e-6
    assert rep.achieved_error < 1e-9


def test_density_consistent_moduli():
    # values -1/2 and 1/3 share sigma = 1; t comes from phase alignment
    nb = log_primes_basis(3)
    a = from_coeffs(nb, {log_element(nb, n): 1.0 for n in (2, 3, 6)})
    psi = Character(nb, (-0.5, 1.0 / 3.0))
    rep = approximate_functional(a, psi, 1e-2, 10 ** 6)
    assert rep.achieved_error < 3e-2 and not rep.exhausted
    assert abs(rep.s.real - 1.0) < 1e-2


def test_density_error_recomputed_independently():
    nb = log_primes_basis(10)
    a = from_coeffs(nb, {log_element(nb, n): complex(0.4, -0.2 * n) for n in (2, 3, 4)})
    psi = Character(nb, (0.5j, -0.3, 0.1 + 0.1j, 0.2))
    rep = approximate_functional(a, psi, 1e-2, 10 ** 5, seed=3)
    check = abs(evaluate_series(a, rep.s)[0] - functional(psi, a))
    assert abs(rep.achieved_error - check) < 1e-12
    assert rep.s.real >= 0.0


def test_density_zero_character():
    nb = log_primes_basis(3)
    a = from_coeffs(nb, {log_element(nb, 2): 1.0, log_element(nb, 3): -2.0})
    psi = Character(nb, (0.0, 0.0))
    rep = approximate_functional(a, psi, 1e-2, 10 ** 5)
    assert rep.achieved_error < 3e-2 and not rep.exhausted


def test_density_t_cap_ends_the_sweep():
    # |t| max(mag) 2^-52 <= theta / 8 keeps t below about 1.4 at
    # theta = 1e-14, where three unit terms cannot all turn to -1: the sweep
    # stops long before the budget and the report says exhausted
    nb = log_primes_basis(59)
    a = from_coeffs(nb, {log_element(nb, p): 1.0 for p in (2, 3, 59)})
    psi = Character(nb, (-1.0,) * len(nb.generators))
    rep = approximate_functional(a, psi, 1e-14, 10 ** 6)
    assert rep.exhausted and rep.steps < 10 ** 6
    assert abs(rep.s.imag) * math.log(59) * 2.0 ** -52 <= 1e-14 / 8


def test_density_tiny_budget_reports_best():
    nb = log_primes_basis(30)
    rng = random.Random(5)
    a = from_coeffs(nb, {log_element(nb, n): complex(rng.uniform(-1, 1),
                                                     rng.uniform(-1, 1))
                         for n in (2, 3, 5, 7, 11, 13)})
    vals = tuple(0.9 * cmath.exp(2j * g.value[0]) for g in nb.generators)
    psi = Character(nb, vals)
    rep = approximate_functional(a, psi, 1e-6, budget=10)
    assert rep.exhausted
    assert rep.steps >= 10
    assert math.isfinite(rep.achieved_error)


def test_density_trims_tiny_support():
    nb = log_primes_basis(5)
    a = from_coeffs(nb, {log_element(nb, 2): 1e-9, log_element(nb, 3): 1e-9})
    psi = Character(nb, (0.5, 0.5, 0.5))
    rep = approximate_functional(a, psi, 1e-2, 10 ** 4)
    assert rep.gamma_used == ()
    assert rep.tail_error < 1e-2
    assert rep.achieved_error < 3e-2


def test_density_gamma_used_subset_and_tail():
    nb = log_primes_basis(10)
    coeffs = {log_element(nb, 2): 1.0, log_element(nb, 3): 0.5,
              log_element(nb, 5): 1e-3, log_element(nb, 7): 1e-3}
    a = from_coeffs(nb, coeffs)
    psi = Character(nb, (0.5, -0.5, 0.25j, -0.25))
    rep = approximate_functional(a, psi, 1e-2, 10 ** 5)
    assert set(rep.gamma_used) <= set(coeffs)
    assert rep.tail_error < 1e-2


def test_density_deterministic_per_seed():
    nb = log_primes_basis(10)
    a = from_coeffs(nb, {log_element(nb, n): complex(0.3 * n, -0.1) for n in (2, 5, 7)})
    psi = Character(nb, (0.4j, -0.2, 0.6, 0.1 - 0.1j))
    r1 = approximate_functional(a, psi, 1e-3, 10 ** 5, seed=11)
    r2 = approximate_functional(a, psi, 1e-3, 10 ** 5, seed=11)
    assert r1.s == r2.s and r1.achieved_error == r2.achieved_error
    assert r1.steps == r2.steps


# density instances of the search-certify workload (theta = 1e-3,
# coefficients and character values rounded to 6 digits) that exhaust a
# budget of 10^6 unless Newton runs from the sweep's chunks:
# (n, coefficient of n^-s), psi(p) on the primes dividing the ns, seed
PINNED = [
    ([54, 58, 37, 7, 35, 52, 31, 59, 49, 42],
     [-0.992196-0.388998j, -0.493489-0.468699j, 0.796287+0.927013j, 0.100123-0.029211j,
      -0.786761-0.484169j, 0.267733-0.670319j, -0.977906-0.044708j, -0.55008+0.533007j,
      -0.809026-0.371554j, 0.74699-0.941114j],
     {2: 0.524654+0.66231j, 3: 0.205223-0.399458j, 5: 0.619333-0.637301j,
      7: 0.548876+0.164751j, 13: 0.140927-0.236584j, 29: 0.458385-0.642419j,
      31: 0.841057-0.418921j, 37: 0.136806-0.612389j, 59: -0.503945+0.823341j}, 547),
    ([30, 14], [0.256643-0.079446j, 0.601614+0.765646j],
     {2: 0.705414+0.655323j, 3: 0.15096-0.727436j, 5: 0.095951-0.197739j,
      7: 0.248536-0.872857j}, 586),
    ([42, 49, 3], [-0.826791-0.42599j, 0.830228-0.223989j, -0.925584-0.905961j],
     {2: 0.227946-0.761033j, 3: 0.080503-0.097635j, 7: 0.963739+0.234507j}, 939),
    ([11, 60, 55, 3, 53, 35, 27, 42, 41, 16],
     [0.003572-0.758798j, 0.283297+0.386232j, -0.508656-0.465416j, -0.952789-0.102365j,
      0.686987-0.247088j, -0.90917-0.269735j, -0.238557-0.544957j, 0.589166+0.687047j,
      -0.964021+0.572223j, 0.762609+0.67206j],
     {2: -0.05713-0.72396j, 3: 0.62902-0.529702j, 5: -0.029315+0.870516j,
      7: -0.212948+0.583481j, 11: -0.475713-0.442089j, 41: 0.873588+0.117069j,
      53: -0.578416-0.522238j}, 614),
]


def _pinned(ns, cs, psi):
    nb = log_primes_basis(60)
    a = from_coeffs(nb, [(log_element(nb, n), c) for n, c in zip(ns, cs)])
    return a, Character(nb, tuple(psi.get(p, 0.0) for p in PRIMES_TO_59))


@pytest.mark.parametrize("ns, cs, psi, seed", PINNED)
def test_density_pinned_instances_certify(ns, cs, psi, seed):
    a, ch = _pinned(ns, cs, psi)
    rep = approximate_functional(a, ch, 1e-3, 10 ** 6, seed=seed)
    assert not rep.exhausted and rep.steps < 10 ** 6
    check = abs(evaluate_series(a, rep.s)[0] - functional(ch, a))
    assert abs(rep.achieved_error - check) < 1e-12 and check < 3e-3
    assert rep.s.real >= 0.0


def test_density_reports_repeat():
    ns, cs, psi, seed = PINNED[0]
    a, ch = _pinned(ns, cs, psi)
    assert (approximate_functional(a, ch, 1e-3, 10 ** 6, seed=seed)
            == approximate_functional(a, ch, 1e-3, 10 ** 6, seed=seed))


def test_density_asks_kronecker_only_past_the_gate(monkeypatch):
    asked = []

    def recording(inst):
        asked.append(inst)
        return kronecker_t(inst)

    monkeypatch.setattr(density, "kronecker_t", recording)
    for ns, cs, psi, seed in PINNED:
        approximate_functional(*_pinned(ns, cs, psi), 1e-3, 10 ** 6, seed=seed)
    # two generators with consistent moduli: the gate admits the quick path
    nb = log_primes_basis(3)
    a = from_coeffs(nb, {log_element(nb, n): 1.0 for n in (2, 3, 6)})
    approximate_functional(a, Character(nb, (-0.5, 1.0 / 3.0)), 1e-2, 10 ** 6)
    assert asked
    assert all(len(inst.betas) == 1 or _gate(inst)[3] for inst in asked)


def test_density_searches_on_one_path(monkeypatch):
    """The moduli fit no single sigma, so the search is the sweep with Newton
    from every chunk alone: no Kronecker start, no simplex polish.  A
    search-certify density op (seed 1, its 36th density op), rounded to 6
    digits."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the density search has no such stage")

    monkeypatch.setattr(density, "kronecker_t", forbidden)
    a, ch = _pinned([59, 6, 32],
                    [0.540716-0.923561j, 0.016127+0.456286j, 0.827495+0.643484j],
                    {2: 0.035078+0.199004j, 3: 0.019042-0.404395j,
                     59: -0.031747-0.826555j})
    rep = approximate_functional(a, ch, 1e-3, 10 ** 6, seed=448)
    assert rep.steps == 4126 and not rep.exhausted
    assert rep.s == pytest.approx(0.015024922968272863 + 3340.786201848314j, rel=1e-12)
    assert rep.achieved_error < 1e-3


def test_density_validation():
    nb = log_primes_basis(3)
    a = from_coeffs(nb, {log_element(nb, 2): 1.0})
    psi = Character(nb, (0.5, 0.5))
    with pytest.raises(ValidationError):
        approximate_functional(a, psi, 0.0)
    for budget in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError):
            approximate_functional(a, psi, 1e-2, budget)
    other = log_primes_basis(5)
    with pytest.raises(ValidationError):
        approximate_functional(a, Character(other, (0.5, 0.5, 0.5)), 1e-2)
    from dirichlet_forge.semigroup import free_rational_basis
    b2 = free_rational_basis([[1, 0], [0, 1]])
    a2 = from_coeffs(b2, {b2.generator_element(0): 1.0})
    with pytest.raises(PreconditionError):
        approximate_functional(a2, Character(b2, (0.5, 0.5)), 1e-2)


def test_density_report_json():
    nb = log_primes_basis(3)
    a = from_coeffs(nb, {log_element(nb, 2): 1.0})
    psi = Character(nb, (0.5, 0.1))
    rep = approximate_functional(a, psi, 1e-2, 10 ** 4)
    data = rep.to_json()
    assert set(data) >= {"s", "achieved_error", "target_value", "gamma_used",
                         "tail_error", "steps", "exhausted"}
    assert data["s"]["re"] >= 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_density_random_instances(seed):
    """Search result is always certified by independent re-evaluation and the
    returned point stays in the closed right half plane."""
    rng = random.Random(seed)
    nb = log_primes_basis(40)
    ns = rng.sample(range(2, 40), rng.randint(1, 6))
    a = from_coeffs(nb, {log_element(nb, n): complex(rng.uniform(-1, 1),
                                                     rng.uniform(-1, 1))
                         for n in ns})
    vals = []
    for _ in nb.generators:
        rr = math.sqrt(rng.random())
        vals.append(rr * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
    psi = Character(nb, tuple(vals))
    rep = approximate_functional(a, psi, 1e-2, 2 * 10 ** 5, seed=seed)
    assert rep.s.real >= 0.0
    check = abs(evaluate_series(a, rep.s)[0] - functional(psi, a))
    assert abs(rep.achieved_error - check) < 1e-12
    if not rep.exhausted:
        assert rep.achieved_error < 3e-2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["from_s", "quick", "quick_two", "zero", "random"]),
       st.integers(-5, 40), st.sampled_from([1e-2, 1e-5]), st.integers(0, 10 ** 6))
def test_every_report_stays_within_its_budget(kind, budget, theta, seed):
    """steps <= max(budget, 0) on every path of the search, the quick paths
    and kronecker_t's one-frequency closed form included."""
    rng = random.Random(seed)
    nb = log_primes_basis(29)
    ns = (2,) if kind == "quick" else rng.sample(range(2, 30), rng.randint(1, 4))
    a = from_coeffs(nb, {log_element(nb, n): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                         for n in ns})
    k = len(nb.generators)
    if kind == "from_s":
        psi = Character.from_s(nb, complex(rng.uniform(0, 2), rng.uniform(-5, 5)))
    elif kind in ("quick", "quick_two"):
        # moduli p^-sigma: consistent with one sigma
        sigma = rng.uniform(0.1, 1.0)
        psi = Character(nb, tuple(math.exp(-sigma * g.value[0])
                                  * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                                  for g in nb.generators))
    elif kind == "zero":
        psi = Character(nb, (0.0,) * k)
    else:
        psi = Character(nb, tuple(math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-3, 3))
                                  for _ in range(k)))
    rep = approximate_functional(a, psi, theta, budget, seed=seed)
    assert 0 <= rep.steps <= max(budget, 0)
    if rep.steps == 0 and rep.gamma_used:
        assert rep.exhausted
    betas = tuple(g.value[0] for g in nb.generators[:rng.randint(1, 3)])
    res = kronecker_t(KroneckerInstance(betas, (1.0,) * len(betas), theta, budget))
    assert 0 <= res.steps <= max(budget, 0)
