"""Differential test: the fast ``solve`` against the seed's, on random pools.

Pools mix singleton roles, a closed family (concrete members and bare-name
"any free index" requests), an open family (bare name and concrete
members), duplicate processes, and partner constraints naming one process
or a disjunctive set.  Both matchers must return the same assignment, and
an :class:`~repro.core.enrollment.EnrollmentPool` that says no critical
set can be covered must never be contradicted by the seed's ``solve``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enrollment import (EnrollmentPool, EnrollmentRequest,
                                   normalize_partners)
from repro.core.matching import Coverage, solve

from tests.core import seed_solve

SINGLETONS = ("a", "b")
CLOSED = "fam"
CLOSED_INDICES = (1, 2, 3)
OPEN = "crowd"
PROCESSES = tuple(f"P{i}" for i in range(6))

CONCRETE = SINGLETONS + tuple((CLOSED, i) for i in CLOSED_INDICES)
TARGETS = CONCRETE + (CLOSED, OPEN, (OPEN, 1), (OPEN, 2))
CRITICAL_ITEMS = CONCRETE + (OPEN, (OPEN, 1))
PARTNER_ROLES = CONCRETE + (OPEN,)

partner_spec = st.one_of(
    st.sampled_from(PROCESSES),
    st.lists(st.sampled_from(PROCESSES), min_size=1, max_size=3))

request_spec = st.tuples(
    st.sampled_from(PROCESSES),
    st.sampled_from(TARGETS),
    st.one_of(st.just({}),
              st.dictionaries(st.sampled_from(PARTNER_ROLES), partner_spec,
                              max_size=2)))

critical_spec = st.lists(
    st.frozensets(st.sampled_from(CRITICAL_ITEMS), min_size=1, max_size=4),
    min_size=1, max_size=3)


def _pool(specs):
    return [EnrollmentRequest(process=process, role_id=target, actuals={},
                              partners=normalize_partners(partners), seq=seq)
            for seq, (process, target, partners) in enumerate(specs)]


def _shape(assignment):
    if assignment is None:
        return None
    return ({role: id(request)
             for role, request in assignment.bindings.items()},
            {family: [id(r) for r in members]
             for family, members in assignment.family_members.items()})


@settings(max_examples=400, deadline=None)
@given(specs=st.lists(request_spec, max_size=12),
       critical_sets=critical_spec,
       open_min=st.integers(0, 2),
       open_max=st.one_of(st.none(), st.integers(2, 4)),
       removed=st.sets(st.integers(0, 11), max_size=4))
def test_fast_solve_matches_seed_solve(specs, critical_sets, open_min,
                                       open_max, removed):
    pool = _pool(specs)
    closed_role_ids = frozenset(CONCRETE)
    args = (critical_sets, {CLOSED: CLOSED_INDICES}, {OPEN: open_min},
            {OPEN: open_max}, closed_role_ids)

    # Shuffle arrival order against seq: both matchers sort by seq.
    shuffled = pool[1::2] + pool[::2]
    expected = seed_solve.solve(shuffled, *args)
    assert _shape(solve(shuffled, *args)) == _shape(expected)

    # The pool's candidate counts, kept across adds and removals, never
    # rule out an assignment the seed matcher finds.
    coverage = Coverage.of(critical_sets, {OPEN: open_min})
    tracked = EnrollmentPool()
    tracked.could_cover(coverage)
    for request in pool:
        tracked.add(request)
    for index in sorted(removed):
        if index < len(pool):
            tracked.remove(pool[index])
    kept = [r for i, r in enumerate(pool) if i not in removed]
    fresh = EnrollmentPool()
    for request in kept:
        fresh.add(request)
    assert tracked.could_cover(coverage) == fresh.could_cover(coverage)
    if not tracked.could_cover(coverage):
        assert seed_solve.solve(kept, *args) is None


def test_star_sized_pool_matches_seed_solve():
    n = 200
    pool = [EnrollmentRequest(process=("R", i), role_id=("recipient", i),
                              actuals={}, partners={}, seq=i)
            for i in range(1, n + 1)]
    pool.append(EnrollmentRequest(
        process="S", role_id="sender", actuals={}, seq=0,
        partners=normalize_partners({("recipient", 7): "R7"})))
    critical = [frozenset(["sender",
                           *(("recipient", i) for i in range(1, n + 1))])]
    args = (critical, {"recipient": tuple(range(1, n + 1))}, {}, {},
            critical[0])
    assert solve(pool, *args) is None
    assert seed_solve.solve(pool, *args) is None
    pool[-1].partners = normalize_partners({("recipient", 7): ("R", 7)})
    assert solve(pool, *args) is not None
    assert _shape(solve(pool, *args)) == _shape(seed_solve.solve(pool, *args))
