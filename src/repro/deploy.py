"""One builder: :func:`deploy` is the one place an :class:`ExecTarget`
becomes a deployment (DESIGN.md §10).  ``durable`` is not a branch: a
durable deployment is ``DurableRunner(deploy(t), path)``, a journalled
serve the engine's ``journal``."""

from __future__ import annotations

import inspect
from dataclasses import replace
from typing import Any, Optional, Sequence

from repro.algorithms.bindings import standard_libraries
from repro.analysis.legality import ExecTarget
from repro.dsms.cost import CostModel
from repro.dsms.resilience import SupervisionPolicy
from repro.dsms.runtime import Gigascope
from repro.dsms.sharded import ShardedGigascope
from repro.dsms.stateful import StatefulLibrary
from repro.serving.server import StandingQueryEngine
from repro.streams.schema import TCP_SCHEMA, StreamSchema

_ENGINE_OPTIONS = frozenset(inspect.signature(StandingQueryEngine).parameters)


def deploy(
    target: ExecTarget = ExecTarget(),
    *,
    schema: StreamSchema = TCP_SCHEMA,
    libraries: Optional[Sequence[StatefulLibrary]] = None,
    supervision: Optional[SupervisionPolicy] = None,
    **options: Any,
) -> Any:
    """The deployment ``target`` describes, with ``schema`` registered,
    ``libraries`` loaded (None: :func:`standard_libraries`) and no query:
    a serial :class:`Gigascope`; for ``shards=N`` a
    :class:`ShardedGigascope`, supervised per ``supervision``; for
    ``serve`` a :class:`StandingQueryEngine` that gives every query this
    function's serial deployment with a private :class:`CostModel`, which
    its tenant's quota is charged from.

    ``options`` go to the constructor; a served deployment's engine takes
    its own (``quotas``, ``journal``, ``trace``, ...), every instance the rest.
    """
    if target.serve:
        engine = {key: options.pop(key) for key in _ENGINE_OPTIONS & options.keys()}
        serial = replace(target, serve=False)
        return StandingQueryEngine(
            lambda: deploy(
                serial, schema=schema, libraries=libraries, cost_model=CostModel(), **options
            ),
            **engine,
        )
    if target.sharded:
        gs: Any = ShardedGigascope(
            target.shards,
            supervise=target.supervise,
            # A policy alone would supervise the pool: only a supervised target's applies.
            supervision=supervision if target.supervise else None,
            shed_threshold=target.shed_threshold,
            **options,
        )
    else:
        gs = Gigascope(shed_threshold=target.shed_threshold, **options)
    gs.register_stream(schema)
    for library in standard_libraries() if libraries is None else libraries:
        gs.use_stateful_library(library)
    return gs
