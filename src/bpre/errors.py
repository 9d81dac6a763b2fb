"""Exception types shared across the package.

Every exception carries a short ``code`` string used by the CLI when it
reports structured errors, and a ``kind`` that maps to the process exit
code ("config" -> 2, "numeric" -> 3).
"""


class BPREError(Exception):
    code = "Error"
    kind = "config"


class InvalidArgumentError(BPREError, ValueError):   # bad input, still a ValueError
    code = "InvalidArgument"


# --- environment model -------------------------------------------------

class NegativeProbError(BPREError):
    code = "NegativeProb"


class DuplicateKeyError(BPREError):
    code = "DuplicateKey"


class MassNotOneError(BPREError):
    code = "MassNotOne"


class WeightsNotOneError(BPREError):
    code = "WeightsNotOne"


class ZeroMeanComponentError(BPREError):
    code = "ZeroMeanComponent"


# --- rate functions ----------------------------------------------------

class OutOfHullError(BPREError):
    code = "OutOfHull"


class DegenerateLawError(BPREError):
    code = "DegenerateLaw"


class NotStronglySupercriticalError(BPREError):
    code = "NotStronglySupercritical"


class COutOfRangeError(BPREError):
    code = "COutOfRange"


class TOutOfRangeError(BPREError):
    code = "TOutOfRange"


class SideMismatchError(BPREError):
    code = "SideMismatch"


# --- exact oracles -----------------------------------------------------

class CapTooSmallError(BPREError):
    code = "CapTooSmall"
    kind = "numeric"


class TooManyComponentsError(BPREError):
    code = "TooManyComponents"


class BudgetExceededError(BPREError):
    code = "BudgetExceeded"


# --- estimators --------------------------------------------------------

class NoHoldingPossibleError(BPREError):
    code = "NoHoldingPossible"


class ZeroEstimateError(BPREError):
    code = "ZeroEstimate"
    kind = "numeric"


class NoEventMassError(BPREError):
    code = "NoEventMass"
    kind = "numeric"


# --- CLI / reporting ---------------------------------------------------

class VersionMismatchError(BPREError):
    code = "VersionMismatch"
