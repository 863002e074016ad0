"""Inexact Wolfe line search: backtracking from a unit trial step.

A trial step is accepted only when it satisfies both the sufficient-decrease
(Armijo) inequality and the curvature inequality

    f(x + a p) <= f(x) + c1 * a * g'p        (Armijo)
    grad f(x + a p)' p >= c2 * g'p           (curvature)

with the fixed constants of ``WOLFE``: c1 = 1e-4 and c2 = 0.9.  Trials start
at a = 1 and contract by half, at most 60 times, so the returned step never
exceeds 1.

The search stops at the first trial that satisfies both.  It also stops at
the second trial that passes Armijo and fails curvature, and returns the
first such step as ``armijo_only``.  Once two trials leave the slope too
steep, smaller steps in practice do too, and each further trial costs an f
and a g evaluation only to return that same first step at the end of the
budget.  Trials that fail Armijo in between do not stop the search: a step
that fails Armijo below one that passed it brackets a point where both
conditions hold (Nocedal & Wright, *Numerical Optimization*, section 3.5),
so the next contractions may still reach a Wolfe step.

Each trial builds its point ``x + a p`` once, and a trial that passes Armijo
takes its gradient at that same array.  One ``np.errstate`` per search, around
the whole trial loop, silences overflow and invalid-value warnings in both
evaluations, so a non-finite trial contracts quietly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WOLFE_SATISFIED = "wolfe_satisfied"
ARMIJO_ONLY = "armijo_only"
EXHAUSTED = "exhausted"


class DescentDirectionError(ValueError):
    """The supplied direction is not a descent direction (g'p >= 0)."""


@dataclass(frozen=True)
class WolfeParams:
    """The search's step-acceptance constants."""

    c1: float
    c2: float
    backtrack: float
    max_trials: int


# The benchmark configuration, fixed: every solve runs the same search.
WOLFE = WolfeParams(c1=1e-4, c2=0.9, backtrack=0.5, max_trials=60)


@dataclass(frozen=True)
class LineSearchOutcome:
    alpha: float
    f_new: float
    grad_new: np.ndarray | None  # None only when status == EXHAUSTED
    f_evals: int
    g_evals: int
    status: str


def wolfe_search(f, x, p, f_x, g_x) -> LineSearchOutcome:
    """Backtrack from a unit step until both Wolfe conditions hold.

    The search gives up on the curvature condition at the second trial that
    passes Armijo with a finite gradient and fails curvature, and returns the
    first such trial with status ``armijo_only``; the caller's curvature guard
    deals with the failed curvature condition.  Trials that fail Armijo after
    the first such trial keep the search going, because a step that fails
    Armijo brackets a Wolfe step below it.  If the trial budget runs out, the
    same fallback is returned, and with no Armijo-passing step at all the
    status is ``exhausted``.  Non-finite trial values or gradients reject the trial and
    contract, so overflowing evaluations shrink the step instead of aborting
    the run.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    slope = float(np.dot(g_x, p))
    if not math.isfinite(slope) or slope >= 0.0:
        raise DescentDirectionError(f"directional derivative {slope!r} is not negative")
    curvature_floor = WOLFE.c2 * slope

    f_count = 0
    g_count = 0
    alpha = 1.0
    last_alpha = alpha
    last_f = float(f_x)
    armijo_fallback = None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(WOLFE.max_trials):
            x_trial = x + alpha * p
            f_trial = float(f.evaluate(x_trial))
            f_count += 1
            if math.isfinite(f_trial) and f_trial <= f_x + WOLFE.c1 * alpha * slope:
                g_trial = np.asarray(f.gradient(x_trial), dtype=float)
                g_count += 1
                if np.isfinite(g_trial).all():
                    if float(g_trial.dot(p)) >= curvature_floor:
                        return LineSearchOutcome(
                            alpha, f_trial, g_trial, f_count, g_count, WOLFE_SATISFIED
                        )
                    if armijo_fallback is not None:
                        break
                    armijo_fallback = (alpha, f_trial, g_trial)
            last_alpha, last_f = alpha, f_trial
            alpha *= WOLFE.backtrack

    if armijo_fallback is not None:
        alpha, f_trial, g_trial = armijo_fallback
        return LineSearchOutcome(alpha, f_trial, g_trial, f_count, g_count, ARMIJO_ONLY)
    return LineSearchOutcome(last_alpha, last_f, None, f_count, g_count, EXHAUSTED)
