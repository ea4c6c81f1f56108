"""Call-graph summary fixpoint for the flow analyses.

:func:`fixpoint` solves *summary* problems that live on a call graph
(the escaping-exception sets of :mod:`~repro.analysis.flow.raises`):
each node's state is recomputed from the current states of the nodes it
depends on until no state changes.  Termination needs the usual
conditions — a monotone step over a finite lattice; the escape sets are
finite sets of exception names drawn from the analysed modules, so the
chains are trivially finite.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

__all__ = ["fixpoint"]

State = TypeVar("State")
Node = TypeVar("Node", bound=Hashable)


def fixpoint(
    nodes: list[Node],
    initial: Callable[[Node], State],
    step: Callable[[Node, dict[Node, State]], State],
) -> dict[Node, State]:
    """Iterate ``step`` over ``nodes`` until no state changes.

    ``step(node, states)`` recomputes one node's summary from the
    current summaries of every node it depends on.  Iteration order is
    the given ``nodes`` order, repeated until stable, so results are
    deterministic.
    """
    states: dict[Node, State] = {node: initial(node) for node in nodes}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            updated = step(node, states)
            if updated != states[node]:
                states[node] = updated
                changed = True
    return states
