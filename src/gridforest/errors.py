"""Exception types shared across the package."""


class GridForestError(Exception):
    """Base class for all errors raised by gridforest."""


def located(exc, *location):
    """``exc``, carrying ``location``: the path of the input value at fault
    within a constructor's input, such as ``("r",)`` for a line or
    ``("lines", 3, "r")`` for a forest.  The file readers turn it into a
    JSON path."""
    exc.location = location
    return exc


def distinct_ids(ids, kind: str = "node id", location=("nodes", "id")) -> tuple:
    """``ids`` as a tuple.  An id that repeats an earlier one at position k
    raises ValueError ``duplicate <kind> <id>``, located (``located``) at
    ``location`` with k after its first entry: ``nodes[k].id`` by default."""
    ids = tuple(ids)
    seen = set()
    for k, i in enumerate(ids):
        if i in seen:
            raise located(ValueError(f"duplicate {kind} {i}"), location[0], k, *location[1:])
        seen.add(i)
    return ids


# -- network / forest construction -------------------------------------------

class CycleDetected(GridForestError):
    """Operational lines close a loop."""


class DisconnectedLoadNode(GridForestError):
    """A load node is not reachable from any substation over operational lines."""


class MultipleSlacksInComponent(GridForestError):
    """An operational component contains more than one substation."""


class ParallelLine(GridForestError):
    """Two lines share the same endpoint pair (simple graphs only)."""


class UnknownNode(GridForestError):
    """Node id not present (or not of the required role)."""


# -- forward model / sampling -------------------------------------------------

class DimensionMismatch(GridForestError):
    """Vector length does not match the number of load nodes."""


class InvalidCovariance(GridForestError):
    """Per-node (p, q) covariance violates the Cauchy-Schwarz bound."""


class NonFiniteSamples(GridForestError):
    """Voltage samples hold a NaN or an infinite value.

    Carries the ``channel`` ("eps" or "theta"), the ``node`` id and the
    0-based sample ``row`` of the first such value.
    """

    def __init__(self, channel, node, row, value):
        super().__init__(f"{channel} of node {node} in sample row {row} is not finite ({value})")
        self.channel, self.node, self.row = channel, node, row


# -- empirical moments ----------------------------------------------------------

class TooFewSamples(GridForestError):
    """At least two samples are required for centered second moments."""


class UnobservedNode(GridForestError):
    """Statistic requested for a node without observations."""


# -- file input -----------------------------------------------------------------

class MalformedSamples(GridForestError):
    """A samples CSV is not a complete, finite (sample, node) table.

    Carries ``path`` and the 1-based ``line`` at fault (None for a missing row).
    """

    def __init__(self, path, line, msg):
        where = str(path) if line is None else f"{path}, line {line}"
        super().__init__(f"{where}: {msg}")
        self.path, self.line = str(path), line


class MalformedJSON(GridForestError):
    """A JSON input lacks a documented key or holds a value of the wrong type.

    Carries ``path`` (the file, or None for in-memory data) and ``where``, the
    JSON path of the bad value, such as ``lines[0].x``.
    """

    def __init__(self, path, where, msg):
        super().__init__(f"{'<data>' if path is None else path}: {where}: {msg}")
        self.path = None if path is None else str(path)
        self.where = where


# -- learners -------------------------------------------------------------------

class IncompleteCover(GridForestError):
    """Learning finished with nodes left unattached.

    Carries ``parent_map`` with the partial recovery.
    """

    def __init__(self, msg, parent_map=None):
        super().__init__(msg)
        self.parent_map = dict(parent_map or {})


class SingularSystem(GridForestError):
    """Per-edge estimation system is numerically singular."""


class NoRealRoot(GridForestError):
    """Edge statistics admit no line parameters with r, x > 0 within tolerance."""


class BothRootsFeasible(GridForestError):
    """Edge statistics admit two line-parameter solutions that fit equally well.

    Carries ``candidates`` with both (r, x, cov_sum) triples.
    """

    def __init__(self, msg, candidates=()):
        super().__init__(msg)
        self.candidates = tuple(candidates)


class NoConsistentPlacement(GridForestError):
    """No placement check passed within tolerance for some node.

    Carries ``parent_map`` with whatever was recovered before the failure,
    and ``events``, the run's ``missing.PlacementEvent`` records in order.
    """

    def __init__(self, msg, parent_map=None, events=None):
        super().__init__(msg)
        self.parent_map = dict(parent_map or {})
        self.events = list(events or [])


class AssumptionViolated(GridForestError):
    """Input violates a structural assumption of the learner."""


# -- experiment harness ---------------------------------------------------------

class InfeasibleSpec(GridForestError):
    """Feeder or experiment specification cannot be realized."""
