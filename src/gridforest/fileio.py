"""On-disk formats: network JSON, injection JSON, samples CSV, missing-spec
JSON, result JSON, and the experiment curves CSV.

All writers are deterministic: fixed key order, repr-precision floats.
The JSON readers name the file and the JSON path (such as ``lines[0].x``) of
a missing key, a value of the wrong type, or a value the network or
missing-spec model rejects.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import GridForestError, MalformedJSON, MalformedSamples
from .missing import HiddenNodeInfo, MissingSpec
from .network import Line, Node, RadialForest, build_forest
from .powerflow import InjectionModel, VoltageSamples


# -- JSON reading ------------------------------------------------------------------

# the JSON name of a decoded value's type, and of each type a reader asks for
_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               str: "a string", list: "an array", dict: "an object"}
_EXPECTED = {int: "an integer", float: "a number", str: "a string", list: "an array",
             dict: "an object"}


class _JsonReader:
    """Typed reads from one decoded JSON object: a whole document, or the
    object at JSON path ``at`` within one.

    A missing key, or a value that is not of the asked type, raises
    MalformedJSON naming ``source`` (the file) and the JSON path of the value.
    int and float convert, so "3" still reads as 3; a boolean is no number,
    and a fractional number is no integer.
    """

    def __init__(self, data, source, at=""):
        self.source = source
        self.at = at
        self.top = self.check(data, dict, at or "top level")

    def check(self, value, kind, at):
        """``value`` as ``kind``, where ``at`` is its JSON path."""
        fraction = isinstance(value, float) and kind is int and not value.is_integer()
        if not (isinstance(value, bool) or fraction):
            if kind in (int, float):
                try:
                    return kind(value)
                except (TypeError, ValueError):
                    pass
            elif isinstance(value, kind):
                return value
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise MalformedJSON(self.source, at, f"expected {_EXPECTED[kind]}, got {got}")

    def get(self, obj, key, kind, at, default=None):
        """``obj[key]`` as ``kind``, where ``at`` is the JSON path of ``obj``;
        ``default`` when the key is absent, unless it is None."""
        at = f"{at}.{key}" if at else key
        if key not in obj:
            if default is None:
                raise MalformedJSON(self.source, at, "missing")
            return default
        return self.check(obj[key], kind, at)

    def build(self, at, make, *args, **kwargs):
        """``make(*args, **kwargs)``, where ``at`` is the JSON path of its
        input.  An error of ``make`` that carries a ``location``
        (``errors.located``) raises MalformedJSON at the value's JSON path."""
        try:
            return make(*args, **kwargs)
        except (ValueError, GridForestError) as exc:
            if not hasattr(exc, "location"):
                raise
            for part in exc.location:
                at = f"{at}[{part}]" if isinstance(part, int) else f"{at}.{part}" if at else part
            raise MalformedJSON(self.source, at, str(exc)) from exc

    def rows(self, key):
        """(object, JSON path) of each element of the top-level array ``key``."""
        items = self.get(self.top, key, list, self.at)
        at = f"{self.at}.{key}" if self.at else key
        return [(self.check(row, dict, f"{at}[{k}]"), f"{at}[{k}]") for k, row in enumerate(items)]


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MalformedJSON(path, f"line {exc.lineno} column {exc.colno}", exc.msg) from None


# -- network ---------------------------------------------------------------------


def network_to_dict(forest: RadialForest) -> dict:
    return {
        "nodes": [{"id": i, "role": forest.nodes[i]} for i in sorted(forest.nodes)],
        "lines": [
            {"a": ln.a, "b": ln.b, "r": ln.r, "x": ln.x, "status": ln.status}
            for ln in forest.lines
        ],
    }


def network_from_dict(data: dict, source=None) -> RadialForest:
    """The forest of a network document; ``source`` names its file in errors,
    as does a value the network model rejects, at its JSON path."""
    rd = _JsonReader(data, source)
    nodes = [
        rd.build(at, Node, rd.get(nd, "id", int, at), rd.get(nd, "role", str, at))
        for nd, at in rd.rows("nodes")
    ]
    lines = [
        rd.build(
            at,
            Line,
            rd.get(ln, "a", int, at),
            rd.get(ln, "b", int, at),
            r=rd.get(ln, "r", float, at),
            x=rd.get(ln, "x", float, at),
            status=rd.get(ln, "status", str, at, "operational"),
        )
        for ln, at in rd.rows("lines")
    ]
    return rd.build(rd.at, build_forest, nodes, lines)


def save_network(path, forest: RadialForest):
    Path(path).write_text(json.dumps(network_to_dict(forest), indent=1))


def load_network(path) -> RadialForest:
    return network_from_dict(_read_json(path), source=path)


# -- injection model -----------------------------------------------------------------


def injection_to_dict(inj: InjectionModel) -> dict:
    return {
        "distribution": inj.distribution,
        "nodes": [
            {
                "id": i,
                "mu_p": float(inj.mu_p[k]),
                "mu_q": float(inj.mu_q[k]),
                "var_p": float(inj.var_p[k]),
                "var_q": float(inj.var_q[k]),
                "cov_pq": float(inj.cov_pq[k]),
            }
            for k, i in enumerate(inj.node_ids)
        ],
    }


def injection_from_dict(data: dict, source=None, at="") -> InjectionModel:
    """The model of an injection document, or of the object at JSON path
    ``at`` within one; ``source`` names its file in errors."""
    rd = _JsonReader(data, source, at)
    rows = rd.rows("nodes")

    def column(key, kind=float):
        return [rd.get(row, key, kind, at) for row, at in rows]

    return InjectionModel(
        node_ids=tuple(column("id", int)),
        mu_p=column("mu_p"),
        mu_q=column("mu_q"),
        var_p=column("var_p"),
        var_q=column("var_q"),
        cov_pq=column("cov_pq"),
        distribution=rd.get(rd.top, "distribution", str, at, "gaussian"),
    )


def save_injection(path, inj: InjectionModel):
    Path(path).write_text(json.dumps(injection_to_dict(inj), indent=1))


def load_injection(path) -> InjectionModel:
    return injection_from_dict(_read_json(path), source=path)


# -- voltage samples -------------------------------------------------------------------


# Rows per block that save_samples formats and load_samples parses at once:
# large enough to amortise each numpy call, small enough that a block's
# strings stay a few MB whatever the file size.
_BLOCK_ROWS = 1 << 14


def save_samples(path, samples: VoltageSamples):
    """Write the samples CSV: header ``sample,node,eps,theta``, then one row per
    (sample, node) in sample-major order, CRLF line endings and repr floats,
    byte for byte what ``csv.writer`` writes. ``theta`` is left blank on every
    row of magnitude-only data.

    Whole samples of about ``_BLOCK_ROWS`` rows are formatted and written at a
    time, so memory stays bounded for any m.
    """
    m, n = samples.eps.shape
    tails = [f",{node}," for node in samples.node_ids]
    step = max(1, _BLOCK_ROWS // n)  # samples per block
    with open(path, "w", newline="") as fh:
        fh.write("sample,node,eps,theta\r\n")
        for j0 in range(0, m, step):
            eps = samples.eps[j0 : j0 + step].tolist()
            if samples.theta is None:
                rows = [
                    f"{j}{tail}{e!r},\r\n"
                    for j, eps_j in enumerate(eps, j0)
                    for tail, e in zip(tails, eps_j)
                ]
            else:
                theta = samples.theta[j0 : j0 + step].tolist()
                rows = [
                    f"{j}{tail}{e!r},{t!r}\r\n"
                    for j, (eps_j, theta_j) in enumerate(zip(eps, theta), j0)
                    for tail, e, t in zip(tails, eps_j, theta_j)
                ]
            fh.write("".join(rows))


_SAMPLE_ROW = np.dtype([("sample", "i8"), ("node", "i8"), ("eps", "f8"), ("theta", "f8")])
# A magnitude-only row: the theta cell is read as text and must be empty.
_BLANK_THETA_ROW = np.dtype([("sample", "i8"), ("node", "i8"), ("eps", "f8"), ("theta", "U1")])


def load_samples(path) -> VoltageSamples:
    """Read a samples CSV written by ``save_samples``.

    LF or CRLF line endings, spaces around fields and quoted numbers are
    accepted. Every line after the header is one row of exactly four fields,
    so an empty line, a quoted field that spans lines or a fifth field is an
    error. Every (sample, node) pair must appear exactly once, samples are
    numbered 0..m-1, values are finite, and theta is given on every row or on
    none; when it is not, the first row of the smaller side (blank or given)
    is named. Anything else raises MalformedSamples naming the file and the
    1-based line.

    Blocks of ``_BLOCK_ROWS`` lines are parsed by numpy's C reader. A block it
    cannot read sends the file through ``_read_rows``, which parses row by
    row and names the first bad line.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header[:4] != ["sample", "node", "eps", "theta"]:
            raise MalformedSamples(path, 1, f"unexpected samples header {header}")
        parsed = _read_blocks(fh)
    table, has_theta = parsed or _read_rows(path)

    def check(bad, msg):  # row i of the table is line i + 2 of the file
        bad = np.flatnonzero(bad)
        if bad.size:
            raise MalformedSamples(path, int(bad[0]) + 2, msg)

    if not len(table):
        raise MalformedSamples(path, 2, "no data rows")
    eps = table["eps"]
    theta = table["theta"] if has_theta else None
    finite = np.isfinite(eps) if theta is None else np.isfinite(eps) & np.isfinite(theta)
    check(~finite, "eps and theta must be finite")
    j = table["sample"]
    check((j < 0) | (j >= len(table)), "sample index out of range")
    node_ids, pos = np.unique(table["node"], return_inverse=True)
    m, n = int(j.max()) + 1, len(node_ids)
    cell, first = np.unique(j * n + pos, return_index=True)
    check(~np.isin(np.arange(len(table)), first), "duplicate (sample, node) row")
    if len(cell) < m * n:
        gap = np.flatnonzero(cell != np.arange(len(cell)))
        k = int(gap[0]) if gap.size else len(cell)
        msg = f"no row for sample {k // n}, node {node_ids[k % n]}"
        raise MalformedSamples(path, None, msg)
    return VoltageSamples(  # rows of ``first`` are in (sample, node) order
        node_ids=node_ids.tolist(),
        eps=eps[first].reshape(m, n),
        theta=None if theta is None else theta[first].reshape(m, n),
    )


def _read_blocks(fh):
    """(table, has_theta) for the data lines left in ``fh``, parsed in blocks by
    ``np.loadtxt``; None if some line is not a row numpy can read. The first
    line decides whether theta is given; the table lacks theta when it is not."""
    blocks, has_theta = [], None
    while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
        if has_theta is None:
            has_theta = _parse_block(lines[:1], _SAMPLE_ROW) is not None
        rows = _parse_block(lines, _SAMPLE_ROW if has_theta else _BLANK_THETA_ROW)
        if rows is None:
            return None
        if not has_theta:
            if (rows["theta"] != "").any():
                return None
            rows = rows[["sample", "node", "eps"]]
        blocks.append(rows)
    if not blocks:
        return np.empty(0, _SAMPLE_ROW), True
    return np.concatenate(blocks), has_theta


def _parse_block(lines, dtype):
    """One row of ``dtype`` per line, or None if some line is not one."""
    try:
        with warnings.catch_warnings():
            # numpy only warns on a block of empty lines, and numpy 1.x only
            # warns when it truncates "1.5" to an integer
            warnings.simplefilter("error")
            rows = np.loadtxt(
                lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
    except (ValueError, Warning):
        return None
    return rows if len(rows) == len(lines) else None  # loadtxt skips empty lines


def _read_rows(path):
    """(table, has_theta), parsed row by row; raises MalformedSamples at the first
    line that is not a row. Slow; load_samples calls it only when a block
    fails to parse, to name the bad line."""
    lines = {False: [], True: []}  # lines with a blank / a given theta cell
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        next(rd)  # the header, checked by the caller

        def parsed():
            line = rd.line_num
            for rec in rd:
                line += 1
                if rd.line_num != line:
                    msg = "a quoted field spans lines; every row must be one line"
                    raise MalformedSamples(path, line, msg)
                if len(rec) != 4:
                    msg = f"expected 4 fields sample,node,eps,theta, found {len(rec)}"
                    raise MalformedSamples(path, rd.line_num, msg)
                lines[bool(rec[3])].append(rd.line_num)
                yield int(rec[0]), int(rec[1]), float(rec[2]), float(rec[3] or 0)

        try:
            table = np.fromiter(parsed(), dtype=_SAMPLE_ROW)
        except (ValueError, OverflowError, csv.Error):
            msg = "expected integer sample,node and numeric eps,theta"
            raise MalformedSamples(path, rd.line_num, msg) from None
    blank, given = lines[False], lines[True]
    if blank and given:
        if len(given) < len(blank):
            raise MalformedSamples(path, given[0], "theta given, but other rows leave it blank")
        raise MalformedSamples(path, blank[0], "blank theta, but other rows give theta")
    return table, not blank


# -- missing spec ------------------------------------------------------------------------


def missing_to_dict(spec: MissingSpec) -> dict:
    return {
        "hidden": [
            {"id": h.id, "var_p": h.var_p, "var_q": h.var_q, "cov_pq": h.cov_pq}
            for h in spec.hidden
        ]
    }


def missing_from_dict(data: dict, source=None) -> MissingSpec:
    """The spec of a missing-spec document; ``source`` names its file in
    errors, as does a repeated hidden id, at its JSON path."""
    rd = _JsonReader(data, source)
    hidden = tuple(
        HiddenNodeInfo(
            rd.get(h, "id", int, at),
            rd.get(h, "var_p", float, at),
            rd.get(h, "var_q", float, at),
            rd.get(h, "cov_pq", float, at),
        )
        for h, at in rd.rows("hidden")
    )
    return rd.build(rd.at, MissingSpec, hidden=hidden)


def save_missing(path, spec: MissingSpec):
    Path(path).write_text(json.dumps(missing_to_dict(spec), indent=1))


def load_missing(path) -> MissingSpec:
    return missing_from_dict(_read_json(path), source=path)


# -- learning results ---------------------------------------------------------------------


def result_to_dict(
    forest: RadialForest,
    *,
    inj_hat: InjectionModel | None = None,
    edge_estimates=None,
    margins=None,
    events=None,
    metrics=None,
) -> dict:
    out = {
        "edges": [
            {
                "child": a,
                "parent": forest.parent[a],
                "r": forest.edge_params[a][0],
                "x": forest.edge_params[a][1],
            }
            for a in sorted(forest.parent)
        ],
        "substations": list(forest.slack_ids),
    }
    if inj_hat is not None:
        out["injection"] = injection_to_dict(inj_hat)
    if edge_estimates is not None:
        out["line_estimates"] = [
            {
                "child": a,
                "parent": b,
                "r_hat": est.r_hat,
                "x_hat": est.x_hat,
                "cov_pq_hat": est.cov_pq_hat,
                "residual": est.residual,
                "root_choice": est.root_choice,
            }
            for (a, b), est in sorted(edge_estimates.items())
        ]
    if margins is not None:
        out["selection_margins"] = [
            {
                "child": d.child,
                "parent": d.parent,
                "margin": None if d.margin == float("inf") else d.margin,
                "runner_up": d.runner_up,
                "ambiguous": d.ambiguous,
            }
            for d in margins
        ]
    if events is not None:
        out["placement_events"] = [
            {
                "child": ev.child,
                "parent": ev.parent,
                "kind": ev.accepted.kind if ev.accepted else None,
                "candidate": ev.accepted.candidate if ev.accepted else None,
                "residual": ev.accepted.residual if ev.accepted else None,
                "wrong_margin": None if ev.wrong_margin == float("inf") else ev.wrong_margin,
            }
            for ev in events
        ]
    if metrics is not None:
        out["metrics"] = metrics
    return out


def save_result(path, data: dict):
    Path(path).write_text(json.dumps(data, indent=1, allow_nan=False))


def load_result(path) -> dict:
    """The decoded result document; ``result_from_dict`` reads its edges and
    injection estimate."""
    return _read_json(path)


def result_from_dict(data: dict, source=None) -> tuple[dict[int, int], InjectionModel | None]:
    """The recovered parent map (child -> parent) of a result document, and its
    injection estimate, None if it has none; ``source`` names its file in
    errors."""
    rd = _JsonReader(data, source)
    parent = {
        rd.get(e, "child", int, at): rd.get(e, "parent", int, at) for e, at in rd.rows("edges")
    }
    if "injection" not in rd.top:
        return parent, None
    return parent, injection_from_dict(rd.top["injection"], source, at="injection")


# -- curves ------------------------------------------------------------------------------


CURVE_COLUMNS = ("task", "m", "seed", "metric", "value")


def save_curves(path, rows):
    """rows: iterables matching CURVE_COLUMNS."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CURVE_COLUMNS)
        for row in rows:
            task, m, seed, metric, value = row
            w.writerow([task, m, seed, metric, repr(float(value))])
