"""Result records of the rare-event estimators."""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional


class Method(str, enum.Enum):
    TILT_ONLY = "TiltOnly"
    TWO_PHASE = "TwoPhase"


class EstimatorResult(NamedTuple):
    """One probability estimate with its uncertainty bookkeeping.

    ``ess`` is the effective sample size (sum of weights squared over sum
    of squared weights) of the event-weighted sample.  ``estimate`` equal
    to 0.0 is an exact "no event mass seen" outcome, flagged by
    ``zero_mass``.  ``normal_steps`` counts the replica-generations that
    branched by the normal approximation of the simulator's log-z lane.
    """

    estimate: float
    stderr: float
    ess: float
    method: Method
    n: int
    c: float
    replicas: int
    seed: int
    zero_mass: bool = False
    tilt: Optional[float] = None        # tilt exponent used, if any
    hold_steps: int = 0                 # held generations, weighed exactly, not sampled
    normal_steps: int = 0               # replica-generations in the log-z lane
