"""STATE / SFUN framework — stateful functions (paper §6.2).

A *state* is a named structure shared by a family of functions; the
sampling operator allocates one instance per supergroup and passes it
implicitly to every SFUN call.  The paper declares these in a C-like IDL::

    STATE char[50] subsetsum_sampling_state;
    SFUN int subsetsum_sampling_state ssample(int, CONST int);

and gives each state an initialisation hook receiving the equivalent state
from the *previous* time window (or NULL)::

    void _sfun_state_init_<state>(void *new, void *old);

Here a state is a Python class registered with :class:`StatefulLibrary`;
the window-carryover hook is the classmethod ``initial(old)``, and the
window-close signal (``final_init`` in paper §6.4) is the optional method
``on_window_final()``.

SFUNs are plain callables whose first parameter is the state instance.
The analyzer classifies a parsed function call as stateful when its name
is registered in the library, and records which state it touches; the
planner then knows which states each supergroup must allocate, and
which calls only read (``reader=True``: :meth:`StatefulLibrary.is_reader`);
lint, which literal arguments an SFUN refuses (``least=``:
:meth:`StatefulLibrary.least`).
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Type

from repro.dsms.fields import slot_fields
from repro.errors import RegistryError, StatefulFunctionError


class StatefulState:
    """Base class for SFUN state structures.

    Subclasses override :meth:`initial` to implement window-to-window
    carryover and may override :meth:`on_window_final` to react to the end
    of a window (paper §6.4 calls ``final_init()`` on every state at the
    window border, before HAVING runs).
    """

    # A state's fields live in slots: see repro.dsms.fields.
    __slots__ = ()

    #: Whether instances can be snapshotted by :meth:`checkpoint` and
    #: rebuilt by :meth:`restore`.  A state holding unsnapshottable
    #: resources (live sockets, ffi handles, external cursors) sets this
    #: to False; every deployment that consumes operator checkpoints then
    #: refuses the query up front, and the static analyzer at lint time
    #: (row SA305 of :data:`repro.analysis.legality.RULES`).
    checkpointable: ClassVar[bool] = True

    @classmethod
    def initial(cls, old: Optional["StatefulState"]) -> "StatefulState":
        """Create the state for a new supergroup.

        ``old`` is the state of the supergroup with the same non-ordered
        key in the *previous* window, or ``None`` for a brand-new
        supergroup.  The default ignores history.
        """
        return cls()

    def on_window_final(self) -> None:
        """Called once when the window containing this state closes."""

    # -- crash-recovery checkpoints ---------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """This state's fields by name: a fresh dict over the live values
        (the view ``Operator.checkpoint`` describes), read slot by slot
        when the state declares ``__slots__``.

        State *classes* are often closure-local (the ``*_library``
        factories define them inside the factory so they close over the
        pack configuration), which makes the instances themselves
        unpicklable by class reference.  The field dict, by contrast, is
        plain data (numbers, lists, ``random.Random`` instances), so a
        checkpoint carries states as ``(state name, field dict)`` and
        rebuilds the instance from the library on restore.  Subclasses
        holding unsnapshottable resources override this pair.
        """
        fields = slot_fields(type(self))
        if fields is None:
            return dict(self.__dict__)
        return {name: getattr(self, name) for name in fields}

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Reinstate, on a fresh instance, the fields :meth:`checkpoint`
        captured (taking them over)."""
        for name, value in snapshot.items():
            setattr(self, name, value)


SFun = Callable[..., Any]


def unknown_sfun(fn_name: str) -> RegistryError:
    return RegistryError(f"unknown stateful function {fn_name!r}")


def unallocated_state(state_name: str, fn_name: str) -> StatefulFunctionError:
    """An SFUN called with a state set that lacks its state."""
    return StatefulFunctionError(
        f"state {state_name!r} for SFUN {fn_name!r} was not allocated;"
        " this usually means the call appears outside a sampling query"
    )


class StatefulLibrary:
    """Registry of STATE types and the SFUNs bound to them."""

    def __init__(self) -> None:
        self._states: Dict[str, Type[StatefulState]] = {}
        self._sfuns: Dict[str, str] = {}  # function name -> state name
        self._callables: Dict[str, SFun] = {}
        self._readers: Set[str] = set()
        self._least: Dict[str, Tuple[Optional[int], ...]] = {}

    # -- registration (usable as decorators) ---------------------------------

    def state(self, name: str) -> Callable[[Type[StatefulState]], Type[StatefulState]]:
        """Class decorator: register a STATE type under ``name``."""

        def register(cls: Type[StatefulState]) -> Type[StatefulState]:
            if name in self._states:
                raise RegistryError(f"state {name!r} already registered")
            if not issubclass(cls, StatefulState):
                raise RegistryError(
                    f"state {name!r} must subclass StatefulState, got {cls.__name__}"
                )
            self._states[name] = cls
            return cls

        return register

    def sfun(self, name: str, state: str, reader: bool = False,
             least: Tuple[Optional[int], ...] = ()) -> Callable[[SFun], SFun]:
        """Function decorator: register an SFUN bound to state ``state``;
        ``least`` holds, per argument, the least value it takes (None: any)."""

        def register(fn: SFun) -> SFun:
            if name in self._sfuns:
                raise RegistryError(f"stateful function {name!r} already registered")
            self._sfuns[name] = state
            self._callables[name] = fn
            if reader:
                self._readers.add(name)
            if least:
                self._least[name] = least
            return fn

        return register

    def add_state(self, name: str, cls: Type[StatefulState]) -> None:
        self.state(name)(cls)

    def add_sfun(self, name: str, state: str, fn: SFun, reader: bool = False) -> None:
        self.sfun(name, state, reader)(fn)

    # -- lookups ---------------------------------------------------------------

    def __contains__(self, fn_name: str) -> bool:
        return fn_name in self._sfuns

    def state_of(self, fn_name: str) -> str:
        try:
            return self._sfuns[fn_name]
        except KeyError:
            raise unknown_sfun(fn_name) from None

    def is_reader(self, fn_name: str) -> bool:
        """Declared ``reader=True``: a value of its state and arguments, no write, no raise."""
        return fn_name in self._readers

    def least(self, fn_name: str) -> Tuple[Optional[int], ...]:
        """Per argument, the least value ``fn_name`` takes (None: any); a
        constant below it is a lint error (SA012)."""
        return self._least.get(fn_name, ())

    def state_class(self, state_name: str) -> Type[StatefulState]:
        try:
            return self._states[state_name]
        except KeyError:
            raise RegistryError(f"unknown state {state_name!r}") from None

    def callable_of(self, fn_name: str) -> SFun:
        try:
            return self._callables[fn_name]
        except KeyError:
            raise unknown_sfun(fn_name) from None

    @property
    def functions(self) -> Mapping[str, SFun]:
        """SFUN name -> callable, the library's own mapping; the state goes first."""
        return self._callables

    def checkpointable(self, state_name: str) -> bool:
        """Static capability check: can this state ride a checkpoint?

        Reads the state class's :attr:`StatefulState.checkpointable`
        declaration without instantiating anything — the one gate every
        consumer of operator checkpoints passes (a durable journal,
        supervised workers, a journalled serve) decides from this before
        any tuple flows: row SA305 of
        :data:`repro.analysis.legality.RULES`, read by the linter and
        raised by the runtimes.
        """
        return bool(getattr(self.state_class(state_name), "checkpointable", True))

    def state_names(self) -> List[str]:
        return sorted(self._states)

    def sfun_names(self) -> List[str]:
        return sorted(self._sfuns)

    # -- composition -------------------------------------------------------------

    def merge(self, other: "StatefulLibrary") -> "StatefulLibrary":
        """A new library containing both registries (collisions raise)."""
        merged = StatefulLibrary()
        for lib in (self, other):
            for state_name, cls in lib._states.items():
                if state_name in merged._states:
                    raise RegistryError(f"state {state_name!r} registered twice in merge")
                merged._states[state_name] = cls
            for fn_name, state_name in lib._sfuns.items():
                if fn_name in merged._sfuns:
                    raise RegistryError(
                        f"stateful function {fn_name!r} registered twice in merge"
                    )
                merged._sfuns[fn_name] = state_name
                merged._callables[fn_name] = lib._callables[fn_name]
            merged._readers |= lib._readers
            merged._least.update(lib._least)
        return merged

    # -- runtime -------------------------------------------------------------------

    def instantiate_states(
        self,
        state_names: Sequence[str],
        old_states: Optional[Dict[str, StatefulState]] = None,
    ) -> Dict[str, StatefulState]:
        """Allocate fresh state instances for a new supergroup.

        Mirrors the paper's superaggregate-structure initialisation: each
        state's ``initial`` receives the equivalent old-window state or
        ``None``.
        """
        states: Dict[str, StatefulState] = {}
        for name in state_names:
            cls = self.state_class(name)
            old = old_states.get(name) if old_states else None
            states[name] = cls.initial(old)
        return states

    def checkpoint_states(
        self, states: Dict[str, StatefulState]
    ) -> Dict[str, Dict[str, Any]]:
        """Picklable snapshot of a supergroup's state set, keyed by state
        name (instances cannot pickle directly — see
        :meth:`StatefulState.checkpoint`)."""
        return {name: state.checkpoint() for name, state in states.items()}

    def restore_states(
        self, snapshot: Dict[str, Dict[str, Any]]
    ) -> Dict[str, StatefulState]:
        """Rebuild live state instances from a :meth:`checkpoint_states`
        snapshot, resolving each state name against this library."""
        states: Dict[str, StatefulState] = {}
        for name, fields in snapshot.items():
            cls = self.state_class(name)
            state = cls.__new__(cls)
            state.restore(fields)
            states[name] = state
        return states
