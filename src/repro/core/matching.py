"""Joint-enrollment matching: finding a consistent process-to-role binding.

Partners-named enrollment means processes "will jointly enroll in the script
only when their enrollment specifications match, that is they all agree on
the binding of processes to roles".  With disjunctive constraints ("A or B")
this is a small constraint-satisfaction problem; the pool sizes involved are
tiny, so a straightforward backtracking search suffices.

Requests may target:

* a singleton role or a concrete family member ``(family, index)``;
* a *closed* family by bare name — "any free index" — in which case the
  matcher allocates a concrete index;
* an *open* family by bare name (Section V open-ended scripts), where fresh
  indices are materialised per performance.

Two entry points:

* :func:`solve` — batch matching for delayed initiation: given the pool of
  pending requests, find an assignment that covers some critical role set
  and is mutually consistent, then greedily extend it with every other
  compatible pending request (maximising participation).

* :func:`consistent_extension` — incremental matching for immediate
  initiation: may ``request`` join a partially-filled performance without
  violating any already-accepted request's constraints?

Most requests name no partners, and a request without partner constraints
accepts every binding, so each consistency check visits only the
already-bound requests that *do* carry constraints (plus every bound
request when the candidate itself carries some).  :class:`Coverage` is the
candidate-count half of :func:`solve`'s feasibility test, precomputed per
script so an enrollment pool can tell, without searching, that no critical
set can be covered yet.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Hashable, Iterable, Mapping, Sequence

from .enrollment import EnrollmentRequest
from .roles import RoleId, family_member, family_of

#: A critical-set item: a concrete role id, or an open family's name (str).
CriticalItem = Hashable


@dataclasses.dataclass(slots=True)
class Assignment:
    """A proposed set of joint enrollments.

    ``bindings`` maps each filled concrete role id to its request.
    ``family_members`` holds open-family requests still awaiting a concrete
    index (the coordinator allocates indices at activation).
    """

    bindings: dict[RoleId, EnrollmentRequest]
    family_members: dict[str, list[EnrollmentRequest]]

    def processes(self) -> set[Hashable]:
        """Every process appearing in this assignment."""
        used = {r.process for r in self.bindings.values()}
        for requests in self.family_members.values():
            used.update(r.process for r in requests)
        return used

    def all_requests(self) -> list[EnrollmentRequest]:
        """Every request in this assignment (bindings + open members)."""
        requests = list(self.bindings.values())
        for members in self.family_members.values():
            requests.extend(members)
        return requests

    def pairs(self) -> list[tuple[RoleId, EnrollmentRequest]]:
        """(role, request) pairs; open members use the family name."""
        result = list(self.bindings.items())
        for family, members in self.family_members.items():
            result.extend((family, m) for m in members)
        return result


def _pairwise_consistent(existing: Iterable[tuple[RoleId, EnrollmentRequest]],
                         role_id: RoleId,
                         request: EnrollmentRequest) -> bool:
    """Check mutual constraints between a candidate and accepted requests."""
    if not request.accepts_binding(role_id, request.process):
        return False
    for bound_role, bound_request in existing:
        if not request.accepts_binding(bound_role, bound_request.process):
            return False
        if not bound_request.accepts_binding(role_id, request.process):
            return False
    return True


def _admits(bound: Iterable[tuple[RoleId, EnrollmentRequest]],
            constrained: Iterable[tuple[RoleId, EnrollmentRequest]],
            role_id: RoleId, request: EnrollmentRequest) -> bool:
    """:func:`_pairwise_consistent`, visiting only constraint carriers.

    ``bound`` is every accepted (role, request) pair and ``constrained``
    the pairs among them whose request names partners.  An unconstrained
    candidate can only be refused by a constrained bound request.
    """
    if request.partners:
        return _pairwise_consistent(bound, role_id, request)
    process = request.process
    for _, bound_request in constrained:
        if not bound_request.accepts_binding(role_id, process):
            return False
    return True


def consistent_extension(filled: Mapping[RoleId, EnrollmentRequest],
                         role_id: RoleId,
                         request: EnrollmentRequest,
                         allow_same_process: bool = False) -> bool:
    """May ``request`` fill ``role_id`` in a performance bound as ``filled``?

    ``allow_same_process`` permits one process to hold several roles of the
    same performance — legal only under immediate initiation with immediate
    termination, per Section II.
    """
    if role_id in filled:
        return False
    if not allow_same_process:
        if any(r.process == request.process for r in filled.values()):
            return False
    constrained = (pair for pair in filled.items() if pair[1].partners)
    return _admits(filled.items(), constrained, role_id, request)


def slot_candidates(pool: Sequence[EnrollmentRequest],
                    role_id: RoleId) -> list[EnrollmentRequest]:
    """Pending requests that could fill concrete role ``role_id``.

    A request naming the family without an index ("any free index") is a
    candidate for every member of that family.  Candidates come in
    arrival (``seq``) order.
    """
    return _candidates(_by_target(pool), role_id)


def _by_target(pool: Sequence[EnrollmentRequest]
               ) -> dict[RoleId, list[EnrollmentRequest]]:
    """The pool grouped by requested role id, each group in pool order."""
    groups: dict[RoleId, list[EnrollmentRequest]] = {}
    for request in pool:
        group = groups.get(request.role_id)
        if group is None:
            groups[request.role_id] = [request]
        else:
            group.append(request)
    return groups


def _candidates(groups: Mapping[RoleId, list[EnrollmentRequest]],
                role_id: RoleId) -> list[EnrollmentRequest]:
    """:func:`slot_candidates`, read from a :func:`_by_target` grouping."""
    exact = groups.get(role_id, [])
    family = family_of(role_id)
    bare = groups.get(family, []) if family is not None else []
    if not bare:
        return exact
    if not exact:
        return bare
    return sorted(exact + bare, key=attrgetter("seq"))


class _Search:
    """Backtracking over the slot list (state of one :func:`solve` try).

    A slot is ``(concrete_role_id, candidates)`` or ``(None, candidates)``
    for an anonymous open-family slot, whose effective role id (for
    constraint checking) is the candidate's family name.
    """

    __slots__ = ("slots", "chosen", "chosen_roles", "picked", "used",
                 "constrained")

    def __init__(self, slots: list[tuple[RoleId | None,
                                         list[EnrollmentRequest]]]):
        self.slots = slots
        self.chosen: list[EnrollmentRequest] = []
        self.chosen_roles: list[RoleId] = []
        self.picked: set[EnrollmentRequest] = set()
        self.used: set[Hashable] = set()
        self.constrained: list[tuple[RoleId, EnrollmentRequest]] = []

    def run(self, depth: int = 0) -> bool:
        """Fill slots ``depth`` onwards; True with ``chosen`` on success."""
        if depth == len(self.slots):
            return True
        role_id, candidates = self.slots[depth]
        for candidate in candidates:
            if candidate in self.picked or candidate.process in self.used:
                continue
            effective_role = (role_id if role_id is not None
                              else candidate.role_id)
            if not _admits(zip(self.chosen_roles, self.chosen),
                           self.constrained, effective_role, candidate):
                continue
            self.chosen.append(candidate)
            self.chosen_roles.append(effective_role)
            self.picked.add(candidate)
            self.used.add(candidate.process)
            if candidate.partners:
                self.constrained.append((effective_role, candidate))
            if self.run(depth + 1):
                return True
            self.chosen.pop()
            self.chosen_roles.pop()
            self.picked.remove(candidate)
            self.used.remove(candidate.process)
            if candidate.partners:
                self.constrained.pop()
        return False


def solve(pool: Sequence[EnrollmentRequest],
          critical_sets: Sequence[frozenset[CriticalItem]],
          closed_families: Mapping[str, tuple[int, ...]],
          open_family_min: Mapping[str, int],
          open_family_max: Mapping[str, int | None],
          closed_role_ids: frozenset[RoleId]) -> Assignment | None:
    """Find a joint enrollment covering some critical set, or ``None``.

    ``critical_sets`` are tried in declaration order; within one set, the
    required slots are filled by backtracking over pending requests in
    arrival order (so earlier enrollments win ties, matching the FIFO
    fairness the paper attributes to Ada).  The base assignment is then
    greedily extended with every remaining compatible request.
    """
    pool = sorted(pool, key=attrgetter("seq"))
    groups = _by_target(pool)
    for critical in critical_sets:
        slots: list[tuple[RoleId | None, list[EnrollmentRequest]]] = []
        feasible = True
        for item in sorted(critical, key=repr):
            if isinstance(item, str) and item in open_family_min:
                needed = open_family_min[item]
                candidates = groups.get(item, [])
                if len(candidates) < needed:
                    feasible = False
                    break
                for _ in range(needed):
                    slots.append((None, candidates))
            else:
                candidates = _candidates(groups, item)
                if not candidates:
                    feasible = False
                    break
                slots.append((item, candidates))
        if not feasible:
            continue

        search = _Search(slots)
        if not search.run():
            continue

        assignment = Assignment(bindings={}, family_members={})
        for role_id, request in zip(search.chosen_roles, search.chosen):
            if role_id in open_family_min:
                assignment.family_members.setdefault(role_id, []).append(request)
            else:
                assignment.bindings[role_id] = request
        _extend_greedily(assignment, pool, closed_families,
                         open_family_min, open_family_max, closed_role_ids)
        return assignment
    return None


def _free_family_index(assignment: Assignment, family: str,
                       indices: tuple[int, ...]) -> int | None:
    """Lowest index of a closed family not yet bound in ``assignment``."""
    for index in sorted(indices):
        if family_member(family, index) not in assignment.bindings:
            return index
    return None


def _extend_greedily(assignment: Assignment,
                     pool: Sequence[EnrollmentRequest],
                     closed_families: Mapping[str, tuple[int, ...]],
                     open_family_min: Mapping[str, int],
                     open_family_max: Mapping[str, int | None],
                     closed_role_ids: frozenset[RoleId]) -> None:
    """Add every remaining compatible request, in arrival order."""
    bound = assignment.pairs()
    taken = {request for _, request in bound}
    processes = {request.process for _, request in bound}
    constrained = [(role, request) for role, request in bound
                   if request.partners]

    def take(role_id: RoleId, request: EnrollmentRequest) -> None:
        bound.append((role_id, request))
        taken.add(request)
        processes.add(request.process)
        if request.partners:
            constrained.append((role_id, request))

    for request in pool:
        if request in taken or request.process in processes:
            continue
        target = request.role_id

        if isinstance(target, str) and target in open_family_min:
            members = assignment.family_members.setdefault(target, [])
            limit = open_family_max.get(target)
            if limit is not None and len(members) >= limit:
                continue
            if not _admits(bound, constrained, target, request):
                continue
            members.append(request)
            take(target, request)
            continue

        if isinstance(target, str) and target in closed_families:
            index = _free_family_index(assignment, target,
                                       closed_families[target])
            if index is None:
                continue
            target = family_member(request.role_id, index)

        if target in assignment.bindings or target not in closed_role_ids:
            continue
        if not _admits(bound, constrained, target, request):
            continue
        assignment.bindings[target] = request
        take(target, request)


@dataclasses.dataclass(frozen=True, slots=True)
class Coverage:
    """The candidate counts :func:`solve` demands, precomputed per script.

    :func:`solve` skips a critical set unless each of its items has at
    least ``need[item]`` pending candidates: one for a concrete role id,
    ``min_count`` for an open family's name.  A pool that keeps these
    counts can therefore rule ``solve`` out without calling it.
    ``covers[target]`` lists the items a request for ``target`` is a
    candidate for (a concrete member is also filled by its family's bare
    name); ``sets_of[item]`` the indices of the critical sets holding
    ``item``; ``size[s]`` how many items of set ``s`` need any candidate
    (items needing none are left out of every table).
    """

    need: Mapping[CriticalItem, int]
    covers: Mapping[RoleId, tuple[CriticalItem, ...]]
    sets_of: Mapping[CriticalItem, tuple[int, ...]]
    size: tuple[int, ...]

    @classmethod
    def of(cls, critical_sets: Sequence[frozenset[CriticalItem]],
           open_family_min: Mapping[str, int]) -> "Coverage":
        """The coverage tables of ``critical_sets``, read as :func:`solve`
        reads them."""
        need: dict[CriticalItem, int] = {}
        covers: dict[RoleId, list[CriticalItem]] = {}
        sets_of: dict[CriticalItem, list[int]] = {}
        size: list[int] = []
        for index, critical in enumerate(critical_sets):
            count = 0
            for item in critical:
                if isinstance(item, str) and item in open_family_min:
                    wanted, targets = open_family_min[item], (item,)
                else:
                    family = family_of(item)
                    wanted = 1
                    targets = (item,) if family is None else (item, family)
                if wanted <= 0:
                    continue
                count += 1
                sets_of.setdefault(item, []).append(index)
                if item not in need:
                    need[item] = wanted
                    for target in targets:
                        covers.setdefault(target, []).append(item)
            size.append(count)
        return cls(need=need,
                   covers={t: tuple(items) for t, items in covers.items()},
                   sets_of={i: tuple(sets) for i, sets in sets_of.items()},
                   size=tuple(size))
