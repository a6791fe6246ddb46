"""Enrollment requests and partner-naming constraints.

The paper distinguishes *partners-named* enrollment (the enrolling process
names which processes must fill (some of) the other roles), *partners-
unnamed* enrollment (no constraints), and mixtures with partial naming.  It
also allows disjunctive naming ("a given role should be fulfilled by either
process A or process B").

An :class:`EnrollmentRequest` therefore carries, besides the target role and
actual parameters, a mapping from partner role ids to *sets* of acceptable
process names.  Joint enrollment requires all co-enrolled requests to agree
on the binding of processes to roles; the search for such an agreement lives
in :mod:`repro.core.matching`.  Pending requests wait in an
:class:`EnrollmentPool`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Any, Hashable, Iterator, Mapping

from ..errors import EnrollmentError
from .roles import RoleId

if TYPE_CHECKING:  # pragma: no cover
    from .matching import Coverage

_request_counter = itertools.count()

#: Normalised partner constraints: role id -> set of acceptable processes.
PartnerConstraints = dict[RoleId, frozenset[Hashable]]


def normalize_partners(partners: Mapping[RoleId, Any] | None
                       ) -> PartnerConstraints:
    """Normalise a user-supplied ``partners`` mapping.

    Values may be a single process name, or an iterable of names (the
    disjunctive "A or B" form).  Strings and tuples count as single names —
    tuples are process-array addresses like ``("recipient", 3)`` — so only
    lists, sets and frozensets denote disjunction.
    """
    if not partners:
        return {}
    normalised: PartnerConstraints = {}
    for role_id, spec in partners.items():
        if isinstance(spec, (list, set, frozenset)):
            names = frozenset(spec)
            if not names:
                raise EnrollmentError(
                    f"empty partner set for role {role_id!r}")
        else:
            names = frozenset([spec])
        normalised[role_id] = names
    return normalised


class RequestState:
    """Lifecycle of an enrollment request."""

    PENDING = "pending"      # pooled, waiting to join a performance
    ASSIGNED = "assigned"    # bound to a role of a performance
    WITHDRAWN = "withdrawn"  # cancelled before assignment


@dataclasses.dataclass(eq=False)
class EnrollmentRequest:
    """One attempt by a process to enroll in a role of a script instance.

    ``role_id`` may name a singleton role, a family member, or — for open
    families — a bare family name, meaning "any fresh index" (the
    coordinator then picks the next free index).
    """

    process: Hashable
    role_id: RoleId
    actuals: dict[str, Any]
    partners: PartnerConstraints
    seq: int = dataclasses.field(default_factory=lambda: next(_request_counter))
    state: str = RequestState.PENDING
    # Filled in at assignment:
    performance: Any = None
    assigned_role: RoleId | None = None

    @property
    def assigned(self) -> bool:
        """True once this request is bound to a role of a performance."""
        return self.state == RequestState.ASSIGNED

    def accepts_binding(self, role_id: RoleId, process: Hashable) -> bool:
        """Does this request allow ``process`` to fill ``role_id``?"""
        allowed = self.partners.get(role_id)
        return allowed is None or process in allowed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EnrollmentRequest #{self.seq} {self.process!r} as "
                f"{self.role_id!r} [{self.state}]>")


class EnrollmentPool:
    """Pending requests in arrival order, with O(1) add and removal.

    Iterates, sizes and tests truthy like the list of requests it stands
    for.  Once :meth:`could_cover` has been asked about a script's
    :class:`~repro.core.matching.Coverage`, the pool also keeps, for each
    critical item, how many pooled requests are candidates for it, and for
    each critical set how many of its items are still short of
    candidates.  Then that question costs O(1), and each add or removal
    costs O(the critical items its request can fill).
    """

    __slots__ = ("_requests", "_coverage", "_have", "_short", "_coverable")

    def __init__(self) -> None:
        self._requests: dict[EnrollmentRequest, None] = {}
        self._coverage: "Coverage | None" = None
        self._have: dict[Any, int] = {}
        self._short: list[int] = []
        self._coverable = 0

    def __iter__(self) -> Iterator[EnrollmentRequest]:
        return iter(self._requests)

    def __len__(self) -> int:
        return len(self._requests)

    def add(self, request: EnrollmentRequest) -> None:
        """Pool ``request`` behind every earlier arrival."""
        self._requests[request] = None
        if self._coverage is not None:
            self._count(request, 1)

    def remove(self, request: EnrollmentRequest) -> None:
        """Take ``request`` out of the pool (``KeyError`` if absent)."""
        del self._requests[request]
        if self._coverage is not None:
            self._count(request, -1)

    def discard(self, request: EnrollmentRequest) -> None:
        """Take ``request`` out of the pool if it is there."""
        if request in self._requests:
            self.remove(request)

    def could_cover(self, coverage: "Coverage") -> bool:
        """Has some critical set enough candidates for each of its items?

        False means :func:`~repro.core.matching.solve` over this pool
        must return ``None``; True means it may succeed (partner
        constraints and one role per process are left to it).  Counting
        starts, or restarts from the pooled requests, whenever
        ``coverage`` is not the one asked about last.
        """
        if coverage is not self._coverage:
            self._coverage = coverage
            self._have = dict.fromkeys(coverage.need, 0)
            self._short = list(coverage.size)
            self._coverable = self._short.count(0)
            for request in self._requests:
                self._count(request, 1)
        return self._coverable > 0

    def _count(self, request: EnrollmentRequest, delta: int) -> None:
        coverage = self._coverage
        items = coverage.covers.get(request.role_id)
        if not items:
            return
        have = self._have
        short = self._short
        for item in items:
            before = have[item]
            after = have[item] = before + delta
            need = coverage.need[item]
            if before < need <= after:
                for index in coverage.sets_of[item]:
                    short[index] -= 1
                    if not short[index]:
                        self._coverable += 1
            elif after < need <= before:
                for index in coverage.sets_of[item]:
                    if not short[index]:
                        self._coverable -= 1
                    short[index] += 1
