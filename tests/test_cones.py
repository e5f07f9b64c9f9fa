"""Polyhedral cone machinery: separation, duals, faces, basis walks."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dirichlet_forge import cones, exact_lp
from dirichlet_forge.cones import (
    ConeBasisResult,
    RationalCone,
    basis_through_point,
    conv_contains_zero,
    dual_cone,
    extreme_rays,
    extreme_rays_from_dual,
    is_pointed,
    minimal_face_containing,
    separate,
    separate_cross_checked,
    tight_normals,
)
from dirichlet_forge.errors import CapExceededError, PreconditionError, ValidationError
from dirichlet_forge.exact_lp import nonneg_combination
from dirichlet_forge.ratlin import dot, rank
from tests.oracles import (brute_basis_through_point, brute_dual_cone,
                           brute_minimal_face, brute_tight_normals, fraction_dual_cone,
                           fraction_span_coordinates, in_cone_brute)

F = Fraction
small = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=3)


# -- separation ---------------------------------------------------------------

def test_separate_quadrant_points():
    res = separate([(1, 0), (0, 1), (2, 3)])
    assert res.separated
    rho = res.functional
    vals = [dot(rho, p) for p in [(F(1), F(0)), (F(0), F(1)), (F(2), F(3))]]
    assert all(v >= 1 for v in vals)
    assert min(vals) == 1  # canonical scaling


def test_separate_zero_in_hull():
    res = separate([(1, 1), (-1, -1)])
    assert not res.separated
    cs = res.zero_coefficients
    assert sum(cs) == 1 and all(c >= 0 for c in cs)
    assert sum(c * p for c, p in zip(cs, [F(1), F(-1)])) == 0


def test_separate_origin_among_points():
    res = separate([(0, 0), (1, 0)])
    assert not res.separated
    assert res.zero_coefficients == (F(1), F(0))


def test_separate_empty_raises():
    with pytest.raises(ValidationError):
        separate([])


def test_separate_rejects_points_of_different_lengths():
    for fn in (separate, separate_cross_checked):
        with pytest.raises(ValidationError, match="different lengths"):
            fn([(1, 0), (1,)])


def test_separate_json_shapes():
    js = separate([(1, 0)]).to_json()
    assert js["separated"] is True and "functional" in js
    js = separate([(1,), (-1,)]).to_json()
    assert js["separated"] is False and "zero_coefficients" in js


# -- dual cones ---------------------------------------------------------------

def test_dual_of_quadrant_is_quadrant():
    res = dual_cone([(1, 0), (0, 1)])
    assert set(res.rays) == {(F(1), F(0)), (F(0), F(1))}
    assert res.lineality_dim == 0


def test_dual_of_halfspace_generator():
    # single generator (1, 0): dual {y1 >= 0} has lineality in y2
    res = dual_cone([(1, 0)])
    assert res.lineality_dim == 1
    cone = RationalCone(2, res.rays)
    assert cone.contains((1, 5))
    assert cone.contains((1, -5))
    assert cone.contains((0, 1)) and cone.contains((0, -1))
    assert not cone.contains((-1, 0))


def test_dual_of_full_space_is_origin():
    res = dual_cone([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert res.rays == ()
    assert res.lineality_dim == 0


def test_dual_cone_obtuse():
    # cone spanned by (1,0) and (1,1): dual spanned by (0,1) and (1,-1)
    res = dual_cone([(1, 0), (1, 1)])
    assert set(res.rays) == {(F(0), F(1)), (F(1), F(-1))}


def test_dual_membership_grid_cross_check():
    gens = [(2, 1), (1, 3)]
    res = dual_cone(gens)
    dual = RationalCone(2, res.rays)
    for i in range(-4, 5):
        for j in range(-4, 5):
            want = all(i * g[0] + j * g[1] >= 0 for g in gens)
            assert dual.contains((F(i), F(j))) == want, (i, j)


@given(st.lists(st.tuples(small, small), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_dual_dual_recovers_cone(gens):
    res = dual_cone(list(gens))
    back = dual_cone(res.rays, 2)
    orig = RationalCone(2, tuple(gens))
    rec = RationalCone(2, back.rays)
    # same cone as a set: generators of each inside the other
    for g in gens:
        assert rec.contains(g)
    for r in back.rays:
        t, _ = nonneg_combination(list(gens), r)
        assert t is not None


@given(st.lists(st.tuples(small, small, small), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_dual_dual_recovers_cone_3d(gens):
    res = dual_cone(list(gens), 3)
    back = dual_cone(res.rays, 3)
    rec = RationalCone(3, back.rays)
    for g in gens:
        assert rec.contains(g)
    for r in back.rays:
        t, _ = nonneg_combination(list(gens), r)
        assert t is not None


@st.composite
def _generator_lists(draw):
    """Up to 8 small integer generators in d <= 5, spanning a subspace of
    dimension k <= d, with zero, duplicate (scaled) and opposite ones mixed in."""
    d = draw(st.integers(1, 5))
    k = d if draw(st.booleans()) else draw(st.integers(1, d))
    coord = st.integers(-2, 2)
    gens = [draw(st.tuples(*[coord] * d)) for _ in range(k)]
    gens += [tuple(sum(c * b[j] for c, b in zip(cs, gens)) for j in range(d))
             for cs in draw(st.lists(st.tuples(*[coord] * k), max_size=8 - k))]
    extras = draw(st.lists(st.sampled_from(["zero", "dup", "opp"]), max_size=8 - len(gens)))
    for kind in extras:
        if kind == "zero" or not gens:
            gens.append((0,) * d)
        else:
            g = gens[draw(st.integers(0, len(gens) - 1))]
            gens.append(tuple((3 if kind == "dup" else -1) * x for x in g))
    return d, draw(st.permutations(gens))


def _in_cone(rays, cone_rays):
    return all(cone_rays and nonneg_combination(list(cone_rays), r)[0] is not None
               for r in rays)


@given(_generator_lists())
# an opposite pair makes every ray share two zeros, so only the combinatorial
# adjacency test keeps redundant rays out here
@example((5, [(-1, 0, 2, -1, 1), (1, 0, -2, 1, -1), (1, 2, 2, 1, 0), (-2, 1, -2, 0, -2),
              (-1, -2, -1, 1, -2), (0, 1, -2, 1, -1), (-1, 1, 2, 0, 2), (2, 1, 0, 1, 2)]))
@settings(max_examples=60, deadline=None)
def test_dual_cone_matches_lp_pruned_oracle(case):
    d, gens = case
    got = dual_cone(gens, dim=d)
    want = brute_dual_cone(gens, dim=d)
    assert got.lineality_dim == want.lineality_dim
    if want.lineality_dim == 0:
        assert got.rays == want.rays
    else:
        assert _in_cone(got.rays, want.rays) and _in_cone(want.rays, got.rays)
        # convention: the pointed rays, then +- a basis of the lineality space
        cut = len(got.rays) - 2 * got.lineality_dim
        tail = got.rays[cut:]
        assert {tuple(-x for x in r) for r in tail} == set(tail)
        assert rank(tail) == got.lineality_dim
        assert all(dot(r, g) == 0 for r in tail for g in gens)
        # irredundant: no pointed ray is generated by the other rays
        for i in range(cut):
            others = got.rays[:i] + got.rays[i + 1:]
            assert not _in_cone([got.rays[i]], others)


@st.composite
def _mixed_generator_lists(draw):
    """`_generator_lists` with some generators given as floats: scaled by a
    dyadic factor (the direction is kept exactly) or by 0.1 (the direction
    moves by a rounding)."""
    d, gens = draw(_generator_lists())
    out = []
    for g in gens:
        f = draw(st.sampled_from([None, None, 0.5, 1.25, 0.1]))
        out.append(g if f is None else tuple(f * x for x in g))
    return d, out


@given(_mixed_generator_lists())
@example((3, [(0, 0, 0), (1, 2, 0), (2, 4, 0), (0, 0.5, 0)]))    # lineality 1
@example((2, [(0, 0), (0, 0)]))                                 # no nonzero generator
@settings(max_examples=300, deadline=None)
def test_dual_cone_matches_fraction_setup(case):
    """Rays and lineality equal those of the Fraction set-up (a Gram inverse,
    a Fraction kernel basis), on zero, duplicate, float and spanning or
    non-spanning generators."""
    d, gens = case
    got = dual_cone(gens, dim=d)
    assert got == fraction_dual_cone(gens, dim=d)
    assert all(type(x) is int for r in got.rays for x in r)


@given(_mixed_generator_lists(), st.data())
@settings(max_examples=300, deadline=None)
def test_span_coordinates_match_fraction_rebuild(case, data):
    """to_coords gives the coordinates, or None outside the span, exactly as
    rebuilding the vector in Fractions does; the basis rows are equal, and
    from_coords rebuilds any rational coordinates to the same Fractions."""
    d, gens = case
    assume(any(any(x != 0 for x in g) for g in gens))
    rows, to_coords, from_coords = cones._span_coordinates(gens)
    want_rows, want_to, want_from = fraction_span_coordinates(gens)
    assert rows == want_rows
    coord = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4)
    cs = data.draw(st.lists(coord, min_size=len(gens), max_size=len(gens)))
    inside = tuple(sum(c * F(g[j]) for c, g in zip(cs, gens)) for j in range(d))
    anywhere = tuple(data.draw(st.one_of(coord, st.floats(-3, 3, width=32)))
                     for _ in range(d))
    for v in (inside, anywhere, gens[0]):
        cs = to_coords(v)
        assert cs == want_to(v)
        assert cs is None or (all(type(c) is F for c in cs) and from_coords(cs) == want_from(cs))
    assert to_coords(inside) is not None
    for cs in (data.draw(st.lists(st.one_of(coord, st.integers(-5, 5)), min_size=len(rows),
                                  max_size=len(rows))), [0] * len(rows)):
        got = from_coords(cs)
        assert got == want_from(cs) and all(type(x) is F for x in got)


def _neighbourly(d, m):
    """Cone over m points of the moment curve t -> (1, t, ..., t^(d-1))."""
    return [tuple(F(t ** j) for j in range(d)) for t in range(1, m + 1)]


def test_dual_cone_neighbourly_5d_16_generators():
    gens = _neighbourly(5, 16)
    t0 = time.perf_counter()
    res = dual_cone(gens)
    back = dual_cone(res.rays, dim=5)
    elapsed = time.perf_counter() - t0
    # facets of the cyclic 4-polytope with 16 vertices: 16 * 13 / 2
    assert len(res.rays) == 104 and res.lineality_dim == 0
    assert back.rays == tuple(sorted(gens))
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_dual_cone_ray_cap_reports_partial_counts(monkeypatch):
    monkeypatch.setattr(cones, "DD_RAY_CAP", 10)
    with pytest.raises(CapExceededError,
                       match=r"DD_RAY_CAP = 10 rays: \d+ of 8 generators processed, "
                             r"10 rays held, \d+ pairs tested"):
        dual_cone(_neighbourly(4, 8))
    assert len(dual_cone(_neighbourly(4, 6)).rays) == 8  # 2 * 6 - 4 stays under


def test_dual_rays_deterministic():
    a = dual_cone([(1, 2), (3, 1)])
    b = dual_cone([(1, 2), (3, 1)])
    assert a.rays == b.rays


# -- pointedness and extreme rays ----------------------------------------------

def test_is_pointed():
    assert is_pointed([(1, 0), (0, 1)])
    assert not is_pointed([(1, 0), (-1, 0)])
    assert is_pointed([])  # trivial cone


def test_extreme_rays_drops_interior_generator():
    rays = extreme_rays([(1, 0), (0, 1), (1, 1)])
    assert rays == sorted([(F(0), F(1)), (F(1), F(0))])


def test_extreme_rays_dedupes_scalings():
    rays = extreme_rays([(1, 0), (2, 0), (0, 3)])
    assert rays == sorted([(F(0), F(1)), (F(1), F(0))])


def test_extreme_rays_rejects_line():
    with pytest.raises(PreconditionError):
        extreme_rays([(1, 0), (-1, 0)])


@st.composite
def _pointed_cones(draw):
    """Up to 8 generators in Q^d, d <= 5, inside a random subspace of
    dimension 2 <= r <= d when d > 1 (so many cones do not span), kept
    when pointed.  All of it comes from a drawn seed: hypothesis'
    preference for small values would make most cones a single ray."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    d = rng.randint(1, 5)
    r = rng.randint(min(2, d), d)
    k = rng.randint(1, 8)
    span = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]
    gens = []
    for _ in range(k):
        c = [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(r - 1)]
        den = rng.choice([1, 1, 2, 3])
        gens.append(tuple(F(sum(ci * b[j] for ci, b in zip(c, span)), den) for j in range(d)))
    assume(any(x != 0 for g in gens for x in g) and is_pointed(gens))
    return gens


@given(_pointed_cones())
@settings(max_examples=200, deadline=None)
@example([(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(1), F(1), F(0)), (F(2), F(0), F(0))])
def test_extreme_rays_from_dual_matches_lp_route(gens):
    dual = dual_cone(gens, dim=len(gens[0]))
    assert extreme_rays_from_dual(gens, dual) == extreme_rays(gens)


def test_conv_contains_zero_certificates():
    inside, cs = conv_contains_zero([(1, 1), (-2, -2)])
    assert inside
    assert sum(c * F(p[0]) for c, p in zip(cs, [(1, 1), (-2, -2)])) == 0
    inside, rho = conv_contains_zero([(1, 0), (0, 1)])
    assert not inside
    assert dot(rho, (F(1), F(0))) >= 1


# -- minimal faces --------------------------------------------------------------

def test_minimal_face_interior_point_is_whole_cone():
    cone = RationalCone(2, ((1, 0), (0, 1)))
    face = minimal_face_containing(cone, (F(1), F(1)))
    assert face.generator_indices == (0, 1)


def test_minimal_face_boundary_point():
    cone = RationalCone(2, ((1, 0), (0, 1)))
    face = minimal_face_containing(cone, (F(2), F(0)))
    assert face.generator_indices == (0,)
    assert not face.ambiguous


def test_minimal_face_of_origin():
    cone = RationalCone(2, ((1, 0), (0, 1)))
    face = minimal_face_containing(cone, (F(0), F(0)))
    assert face.generator_indices == ()


def test_minimal_face_requires_membership():
    cone = RationalCone(2, ((1, 0), (0, 1)))
    with pytest.raises(PreconditionError):
        minimal_face_containing(cone, (F(-1), F(0)))


def test_minimal_face_redundant_generator_included():
    # (1,1) is inside the cone of the others; an interior x marks all three
    cone = RationalCone(2, ((1, 0), (0, 1), (1, 1)))
    face = minimal_face_containing(cone, (F(3), F(3)))
    assert 2 in face.generator_indices
    assert face.generator_indices == (0, 1, 2)


def test_minimal_face_float_policy_tight():
    cone = RationalCone(2, ((1, 0), (0, 1)))
    face = minimal_face_containing(cone, (2.0, 1e-15))
    assert face.generator_indices == (0,)
    assert not face.ambiguous


def test_minimal_face_float_policy_clearly_interior():
    cone = RationalCone(2, ((1, 0), (0, 1)))
    face = minimal_face_containing(cone, (1.0, 0.5))
    assert face.generator_indices == (0, 1)


def test_minimal_face_float_policy_ambiguous_goes_large():
    cone = RationalCone(2, ((1, 0), (0, 1)))
    # 1e-9 sits between the rungs: ambiguous, resolved to the larger face
    face = minimal_face_containing(cone, (2.0, 1e-9))
    assert face.ambiguous
    assert face.generator_indices == (0, 1)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_tight_normals_matches_the_fraction_loop(data):
    """The int rule gives the tight normals and the ambiguous count of the
    Fraction loop it replaced, on points nudged off a hyperplane by 10^-k,
    so every rung is met."""
    d = data.draw(st.integers(1, 4))
    ints = st.integers(-9, 9)
    normals = data.draw(st.lists(st.tuples(*[ints] * d), min_size=1, max_size=8))
    n0, base = normals[0], data.draw(st.tuples(*[ints] * d))
    nn = dot(n0, n0)
    on = [F(b) - (F(dot(n0, base), nn) * a if nn else 0) for a, b in zip(n0, base)]
    k = data.draw(st.sampled_from([0, 4, 6, 7, 8, 9, 11, 12, 13, 16]))
    mag = 10.0 ** data.draw(st.integers(-3, 5))
    noise = data.draw(st.tuples(*[st.floats(-1, 1)] * d))
    x = [mag * (float(v) + e * 10.0 ** -k) for v, e in zip(on, noise)]
    assert tight_normals(normals, x) == brute_tight_normals(normals, x)


@pytest.mark.parametrize("dim", ["x", -2, True, 2.0])
def test_dual_cone_rejects_a_malformed_dimension(dim):
    with pytest.raises(ValidationError, match="dimension"):
        dual_cone([], dim=dim)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_minimal_face_relative_interior_property(seed):
    """x is a strictly positive combination of the face generators."""
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    k = rng.randint(2, 5)
    gens = [tuple(F(rng.randint(0, 3)) for _ in range(d)) for _ in range(k)]
    gens = [g for g in gens if any(x != 0 for x in g)]
    if not gens or not is_pointed(gens):
        return
    t0 = [F(rng.randint(0, 2)) for _ in gens]
    x = tuple(sum(t * g[dd] for t, g in zip(t0, gens)) for dd in range(d))
    cone = RationalCone(d, tuple(gens))
    face = minimal_face_containing(cone, x)
    # every generator that can appear with positive weight is in the face:
    # the witness representation t0 itself must be supported inside it
    for i, ti in enumerate(t0):
        if ti > 0:
            assert i in face.generator_indices
    # and x must be representable using face generators only
    if face.generators:
        t, _ = nonneg_combination(list(face.generators), x)
        assert t is not None
    else:
        assert all(v == 0 for v in x)


# -- basis through a point ------------------------------------------------------

def test_basis_walk_quadrant_example():
    # eta interior to the quadrant: the walk splits it over both axes
    res = basis_through_point([(1, 0), (0, 1)], (F(1), F(1)))
    assert set(res.vectors) == {(F(1), F(0)), (F(0), F(1))}
    assert all(c > 0 for c in res.coefficients)


def test_basis_walk_eta_on_ray():
    res = basis_through_point([(1, 0), (0, 1)], (F(3), F(0)))
    assert res.vectors[0] == (F(1), F(0))
    # completion adds the other axis to reach full rank
    assert rank(list(res.vectors)) == 2
    recon = [sum(c * v[d] for c, v in zip(res.coefficients, res.vectors))
             for d in range(2)]
    assert recon == [F(3), F(0)]


def test_basis_walk_eta_zero():
    res = basis_through_point([(1, 0), (0, 1)], (F(0), F(0)))
    assert rank(list(res.vectors)) == 2
    assert all(c == 0 for c in res.coefficients)


def test_basis_walk_single_generator():
    res = basis_through_point([(2, 2)], (F(1), F(1)))
    assert len(res.vectors) == 1
    recon = [res.coefficients[0] * v for v in res.vectors[0]]
    assert recon == [F(1), F(1)]


def test_basis_walk_respects_first_request():
    theta = (F(1), F(1))
    res = basis_through_point([(1, 0), (0, 1), (1, 1)], (F(2), F(1)),
                              first=theta)
    assert res.vectors[0] == theta


def test_basis_walk_rejects_outside_eta():
    with pytest.raises(PreconditionError):
        basis_through_point([(1, 0), (0, 1)], (F(-1), F(0)))


def test_basis_walk_rejects_line():
    with pytest.raises(PreconditionError):
        basis_through_point([(1, 0), (-1, 0)], (F(0), F(0)))


def test_basis_walk_lower_dimensional_span():
    # generators span a plane inside Q^3
    gens = [(1, 0, 1), (0, 1, 1)]
    eta = (F(2), F(3), F(5))
    res = basis_through_point(gens, eta)
    assert len(res.vectors) == 2
    recon = [sum(c * v[d] for c, v in zip(res.coefficients, res.vectors))
             for d in range(3)]
    assert recon == list(eta)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_basis_walk_reconstruction_property(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    k = rng.randint(2, 5)
    gens = [tuple(F(rng.randint(0, 3)) for _ in range(d)) for _ in range(k)]
    gens = [g for g in gens if any(x != 0 for x in g)]
    if not gens:
        return
    t0 = [F(rng.randint(0, 3)) for _ in gens]
    eta = tuple(sum(t * g[dd] for t, g in zip(t0, gens)) for dd in range(d))
    res = basis_through_point(gens, eta)
    vecs = list(res.vectors)
    # independent, inside the cone, spanning the generator span
    assert rank(vecs) == len(vecs) == rank(gens)
    for v in vecs:
        t, _ = nonneg_combination(gens, v)
        assert t is not None
    recon = [sum(c * v[dd] for c, v in zip(res.coefficients, vecs))
             for dd in range(d)]
    assert list(recon) == list(eta)
    assert all(c >= 0 for c in res.coefficients)


def test_in_cone_brute_oracle_agreement():
    gens = [(1, 0), (1, 2)]
    cone = RationalCone(2, tuple(gens))
    for x in [(2, 2), (1, 1), (0, 1), (2, 0), (1, 3)]:
        want = in_cone_brute(x, gens)
        assert cone.contains((F(x[0]), F(x[1]))) == want, x


def test_separate_cross_checked_smoke():
    res = separate_cross_checked([(1, 0), (0, 1)])
    assert res.separated
    res = separate_cross_checked([(1,), (-2,)])
    assert not res.separated


# -- the dual-cone routes against the LP routes ---------------------------------


@st.composite
def _cone_cases(draw):
    """(generators, x, first) in Q^d, d <= 5.  The generators lie in a random
    subspace, positive on its first basis vector; some cones get a line or
    a zero generator.  x is a point of the cone, the origin, a multiple of a
    generator or an arbitrary integer vector (often outside the cone or its
    span); first is absent, in the cone, in the span or arbitrary."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    d = rng.randint(1, 5)
    r = rng.randint(1, d)
    span = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]

    def in_span(c):
        den = rng.choice([1, 1, 2, 3])
        return tuple(F(sum(ci * b[j] for ci, b in zip(c, span)), den) for j in range(d))

    gens = [in_span([rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(r - 1)])
            for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.2:
        gens.append(tuple(-x for x in rng.choice(gens)))
    if rng.random() < 0.1:
        gens.insert(rng.randrange(len(gens) + 1), (F(0),) * d)

    def in_cone():
        return tuple(sum(rng.randint(0, 3) * g[j] for g in gens) for j in range(d))

    def arbitrary():
        return tuple(F(rng.randint(-3, 3)) for _ in range(d))

    x = rng.choice([in_cone, in_cone, lambda: (F(0),) * d,
                    lambda: tuple(2 * v for v in rng.choice(gens)), arbitrary])()
    first = rng.choice([None, None, in_cone,
                        lambda: in_span([rng.randint(-3, 3) for _ in range(r)]),
                        arbitrary])
    return gens, x, first and first()


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (PreconditionError, ValidationError) as e:
        return type(e), str(e)


@given(_cone_cases())
@settings(max_examples=300, deadline=None)
@example(([(F(1), F(0)), (F(-1), F(0))], (F(0), F(0)), None))     # a line
@example(([(F(1), F(0)), (F(0), F(1))], (F(1), F(-1)), None))     # eta outside
@example(([(F(1), F(0), F(1)), (F(0), F(1), F(1))], (F(1), F(1), F(0)), None))
@example(([(F(1), F(0)), (F(0), F(1)), (F(1), F(1))], (F(2), F(1)), (F(1), F(1))))
@example(([(F(1), F(0), F(0)), (F(0), F(1), F(0))], (F(1), F(1), F(0)),
          (F(0), F(0), F(1))))                                  # first off the span
def test_basis_walk_matches_lp_oracle(case):
    """Vectors, coefficients, completion indices and errors equal the LP walk's."""
    gens, eta, first = case
    assert (_outcome(basis_through_point, gens, eta, first=first)
            == _outcome(brute_basis_through_point, gens, eta, first=first))


@given(_cone_cases())
@settings(max_examples=300, deadline=None)
@example(([(F(1), F(0)), (F(-1), F(0)), (F(0), F(1))], (F(5), F(0)), None))
@example(([(F(1), F(0)), (F(0), F(0)), (F(1), F(1))], (F(2), F(0)), None))
def test_minimal_face_matches_lp_oracle(case):
    """Face indices, generators and tight normals equal the LP route's, and
    so do the errors; float points take the interval policy on both sides."""
    gens, x, _ = case
    cone = RationalCone(len(x), tuple(gens))
    assert _outcome(minimal_face_containing, cone, x) == _outcome(brute_minimal_face, cone, x)
    xf = tuple(float(v) for v in x)
    assert _outcome(minimal_face_containing, cone, xf) == _outcome(brute_minimal_face, cone, xf)


def test_basis_walk_and_minimal_face_solve_no_lp(monkeypatch):
    gens = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(1), F(1), F(1)), (F(0), F(2), F(1))]
    line = [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1))]
    walks = [(gens, (F(2), F(3), F(1)), None), (gens, (F(1), F(1), F(0)), gens[2]),
             (gens, (F(0), F(0), F(1)), None), (line, (F(0), F(1)), None)]
    faces = [(gens, (F(1), F(3), F(1))), (gens, (F(1), F(0), F(0))),
             (gens, (F(0), F(0), F(-1))), (line, (F(3), F(0)))]
    want = ([_outcome(brute_basis_through_point, g, e, first=f) for g, e, f in walks],
            [_outcome(brute_minimal_face, RationalCone(len(x), tuple(g)), x) for g, x in faces])

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(exact_lp, "solve_standard", no_lp)
    with pytest.raises(AssertionError, match="an LP was solved"):
        is_pointed(gens)
    got = ([_outcome(basis_through_point, g, e, first=f) for g, e, f in walks],
           [_outcome(minimal_face_containing, RationalCone(len(x), tuple(g)), x)
            for g, x in faces])
    assert got == want
