"""Depth-first backtracking with an explicit stack, shared by the verifier,
the oracles and the complement samplers, so that no search depth is bounded
by Python's recursion limit."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import SearchBudgetExceeded


def backtrack(depth: int,
              choices: Callable[[int], Iterable],
              enter: Callable[[int, object], None],
              leave: Callable[[int], None],
              node_budget: int | None = None) -> Iterator[None]:
    """Yield once per complete path of ``depth`` levels, depth-first.

    ``choices(i)`` gives the candidates for level i with levels 0..i-1
    applied; it is called each time level i opens and is read lazily.
    ``enter(i, c)`` applies candidate c at level i and ``leave(i)`` undoes
    it.  At each yield all levels are applied; a caller that stops
    iterating keeps that state.  Raises SearchBudgetExceeded when more
    than ``node_budget`` candidates would be entered.
    """
    if depth == 0:
        yield
        return
    nodes = 0
    open_levels = [iter(choices(0))]
    while open_levels:
        i = len(open_levels) - 1
        for c in open_levels[i]:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise SearchBudgetExceeded(f"more than {node_budget} nodes")
            enter(i, c)
            if i + 1 < depth:
                open_levels.append(iter(choices(i + 1)))
                break
            yield
            leave(i)
        else:
            open_levels.pop()
            if i:
                leave(i - 1)
