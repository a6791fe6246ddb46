"""Script-to-Ada translation: Figures 9, 10 and 11, executable.

The paper's second existence proof replaces each role ``r_j`` of script
``s`` by a task ``s_r_j`` and adds one supervisor task, so ``n`` processes
become ``n + m + 1``.  Each role task gains two entries (Figure 10)::

    ENTRY start (v1 : IN t1; v3 : IN t3);
    ENTRY stop  (v2 : OUT t2; v3 : OUT t3);

and an enrollment ``ENROLL IN s AS r(in, out, inout)`` becomes::

    s_r.start(in-params, inout-params);
    s_r.stop(out-params, inout-params);

The role task (Figure 11) loops: accept ``start`` (copying in-parameters),
notify the supervisor, run the body ``B`` (whose role-entry calls
``r_j.x(y)`` become task-entry calls ``s_r_j.x(y)``), notify the
supervisor, and accept ``stop`` (copying out-parameters back).

The supervisor serialises performances through ``begin``/``finish`` entry
families — role *j* may begin performance *k+1* only after every role has
finished performance *k*, enforcing successive activations.

Both "unfortunate consequences" the paper calls out are reproduced
observably: the process count grows from *n* to *n + m + 1* (assertable via
:attr:`AdaTranslatedScript.process_overhead`), and the role tasks loop
forever unless bounded — ``install(performances=...)`` bounds them so test
programs still terminate.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Hashable, Mapping

from ..ada import AcceptedCall, AdaSystem, TaskContext, when
from ..errors import AdaError

Body = Generator[Any, Any, Any]

#: A role-task body: ``body(io, params) -> out-params dict``.
RoleTaskBody = Callable[["RoleTaskIO", dict[str, Any]], Body]


class RoleTaskIO:
    """Body-side view of the translated role: entry calls between role tasks.

    Calls to a role entry ``r_j.x(y)`` become task-entry calls
    ``s_r_j.x(y)`` (the paper's rule); accepts are unchanged.
    """

    def __init__(self, script: "AdaTranslatedScript", ctx: TaskContext):
        self._script = script
        self.ctx = ctx

    def call(self, role: str, entry: Hashable, *args: Any) -> Body:
        """Call ``role``'s entry (resolved to that role's task)."""
        result = yield from self.ctx.call(self._script.task_name(role),
                                          entry, *args)
        return result

    def accept(self, entry: Hashable) -> Generator[Any, Any, AcceptedCall]:
        """Accept a call on this role task's entry (unchanged by rule)."""
        call = yield from self.ctx.accept(entry)
        return call

    def accept_do(self, entry: Hashable,
                  body: Callable[..., Any] | None = None
                  ) -> Generator[Any, Any, AcceptedCall]:
        call = yield from self.ctx.accept_do(entry, body)
        return call


class AdaTranslatedScript:
    """A script compiled to Ada tasks per Figures 9-11."""

    def __init__(self, system: AdaSystem, name: str,
                 roles: Mapping[str, RoleTaskBody]):
        if not roles:
            raise AdaError("a script needs at least one role")
        self.system = system
        self.name = name
        self.roles = dict(roles)
        self.installed = False

    # -- naming ---------------------------------------------------------------

    def task_name(self, role: str) -> tuple[str, str, str]:
        """The task materialising ``role`` (the paper's ``s_r_j``)."""
        return (self.name, "role", role)

    @property
    def supervisor_name(self) -> tuple[str, str]:
        """The supervisor task's name."""
        return (self.name, "supervisor")

    @property
    def process_overhead(self) -> int:
        """Extra processes the translation creates: m role tasks + 1."""
        return len(self.roles) + 1

    # -- installation -----------------------------------------------------------

    def install(self, performances: int) -> None:
        """Spawn the m role tasks and the supervisor task.

        ``performances`` bounds the role-task loops; the paper notes the
        unbounded translation "can convert a terminating program into a
        non-terminating one".
        """
        if self.installed:
            raise AdaError(f"script {self.name!r} already installed")
        self.installed = True
        for role, body in self.roles.items():
            self.system.task(self.task_name(role),
                             self._role_task(role, body, performances))
        self.system.task(self.supervisor_name,
                         self._supervisor_task(performances))

    def _role_task(self, role: str, body: RoleTaskBody,
                   performances: int) -> Callable[[TaskContext], Body]:
        def task_body(ctx: TaskContext) -> Body:
            for _ in range(performances):
                # Figure 11: accept start, copying in-parameters to locals.
                start_call = yield from ctx.accept("start")
                in_params = dict(start_call.args[0])
                start_call.complete()
                yield from ctx.call(self.supervisor_name, ("begin", role))
                io = RoleTaskIO(self, ctx)
                out_params = yield from body(io, in_params)
                yield from ctx.call(self.supervisor_name, ("finish", role))
                # Accept stop, copying out-parameters back to the caller.
                stop_call = yield from ctx.accept("stop")
                stop_call.complete(out_params if out_params is not None else {})
        return task_body

    def _supervisor_task(self, performances: int
                         ) -> Callable[[TaskContext], Body]:
        def task_body(ctx: TaskContext) -> Body:
            roles = list(self.roles)
            for _ in range(performances):
                # Declaration-ordered (not a set of strings): the select's
                # Choice draws from the alternatives in this order, so a
                # hash-ordered set would make the trace vary by process.
                pending = dict.fromkeys(roles)
                while pending:
                    entry, call = yield from ctx.select(
                        [when(True, ("begin", role)) for role in pending])
                    call.complete()
                    del pending[entry[1]]
                pending = dict.fromkeys(roles)
                while pending:
                    entry, call = yield from ctx.select(
                        [when(True, ("finish", role)) for role in pending])
                    call.complete()
                    del pending[entry[1]]
        return task_body

    # -- enrollment ---------------------------------------------------------------

    def enroll(self, ctx: TaskContext, role: str,
               **in_params: Any) -> Body:
        """The translated enrollment: ``s_r.start(in); s_r.stop(out)``.

        Run with ``yield from`` inside an Ada task body; returns the role's
        out-parameters dict.
        """
        if role not in self.roles:
            raise AdaError(f"script {self.name!r} has no role {role!r}")
        if not self.installed:
            raise AdaError(f"script {self.name!r} not installed")
        task = self.task_name(role)
        yield from ctx.call(task, "start", in_params)
        out_params = yield from ctx.call(task, "stop")
        return out_params


def make_ada_broadcast(system: AdaSystem, n: int = 5) -> AdaTranslatedScript:
    """Figure 8's broadcast, compiled per Figures 9-11.

    The body is the figure's "reverse broadcast": recipients *call* the
    sender's ``receive`` entry, because Ada callers must name the callee
    while accepts are anonymous.
    """

    def sender(io: RoleTaskIO, params: dict[str, Any]) -> Body:
        data = params["data"]
        completed = 0
        while completed < n:
            yield from io.accept_do("receive", lambda: data)
            completed += 1
        return {}

    def recipient(io: RoleTaskIO, params: dict[str, Any]) -> Body:
        value = yield from io.call("sender", "receive")
        return {"data": value}

    roles: dict[str, RoleTaskBody] = {"sender": sender}
    for i in range(1, n + 1):
        roles[f"r{i}"] = recipient
    return AdaTranslatedScript(system, "broadcast", roles)
