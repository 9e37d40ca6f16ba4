"""On-disk formats: network JSON, injection JSON, samples CSV, missing-spec
JSON, result JSON, and the experiment curves CSV.

All writers are deterministic: fixed key order, repr-precision floats.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import MalformedSamples
from .missing import HiddenNodeInfo, MissingSpec
from .network import Line, Node, RadialForest, build_forest
from .powerflow import InjectionModel, VoltageSamples


# -- network ---------------------------------------------------------------------


def network_to_dict(forest: RadialForest) -> dict:
    return {
        "nodes": [{"id": i, "role": forest.nodes[i]} for i in sorted(forest.nodes)],
        "lines": [
            {"a": ln.a, "b": ln.b, "r": ln.r, "x": ln.x, "status": ln.status}
            for ln in forest.lines
        ],
    }


def network_from_dict(data: dict) -> RadialForest:
    nodes = [Node(int(nd["id"]), nd["role"]) for nd in data["nodes"]]
    lines = [
        Line(
            int(ln["a"]),
            int(ln["b"]),
            r=float(ln["r"]),
            x=float(ln["x"]),
            status=ln.get("status", "operational"),
        )
        for ln in data["lines"]
    ]
    return build_forest(nodes, lines)


def save_network(path, forest: RadialForest):
    Path(path).write_text(json.dumps(network_to_dict(forest), indent=1))


def load_network(path) -> RadialForest:
    return network_from_dict(json.loads(Path(path).read_text()))


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


def injection_from_dict(data: dict) -> InjectionModel:
    rows = data["nodes"]
    return InjectionModel(
        node_ids=tuple(int(r["id"]) for r in rows),
        mu_p=[r["mu_p"] for r in rows],
        mu_q=[r["mu_q"] for r in rows],
        var_p=[r["var_p"] for r in rows],
        var_q=[r["var_q"] for r in rows],
        cov_pq=[r["cov_pq"] for r in rows],
        distribution=data.get("distribution", "gaussian"),
    )


def save_injection(path, inj: InjectionModel):
    Path(path).write_text(json.dumps(injection_to_dict(inj), indent=1))


def load_injection(path) -> InjectionModel:
    return injection_from_dict(json.loads(Path(path).read_text()))


# -- voltage samples -------------------------------------------------------------------


def save_samples(path, samples: VoltageSamples):
    """CSV with one row per (sample, node): sample,node,eps,theta; CRLF rows
    and repr floats, as ``csv.writer`` writes them."""
    m, n = samples.eps.shape
    keys = (f"{j},{node}," for j in range(m) for node in samples.node_ids)
    eps = map(repr, samples.eps.ravel().tolist())
    theta = samples.theta
    theta = [""] * (m * n) if theta is None else map(repr, theta.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write("sample,node,eps,theta\r\n")
        fh.writelines(f"{k}{e},{t}\r\n" for k, e, t in zip(keys, eps, theta))


_SAMPLE_ROW = np.dtype([("sample", "i8"), ("node", "i8"), ("eps", "f8"), ("theta", "f8")])


def load_samples(path) -> VoltageSamples:
    """Read a samples CSV written by ``save_samples``.

    Every (sample, node) pair must appear exactly once, samples are numbered
    0..m-1, values are finite, and theta is given on every row or on none.
    Anything else raises MalformedSamples naming the file and line.
    """
    blank = []  # lines with an empty theta cell
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, [])
        if header[:4] != ["sample", "node", "eps", "theta"]:
            raise MalformedSamples(path, 1, f"unexpected samples header {header}")

        def parsed():
            for rec in rd:
                if not rec[3]:
                    blank.append(rd.line_num)
                    rec[3] = "0"
                yield int(rec[0]), int(rec[1]), float(rec[2]), float(rec[3])

        try:
            table = np.fromiter(parsed(), dtype=_SAMPLE_ROW)
        except (ValueError, IndexError, OverflowError, csv.Error):
            msg = "expected integer sample,node and numeric eps,theta"
            raise MalformedSamples(path, rd.line_num, msg) from None

    def check(bad, msg):  # row i of the table is line i + 2 of the file
        bad = np.flatnonzero(bad)
        if bad.size:
            raise MalformedSamples(path, int(bad[0]) + 2, msg)

    if not len(table):
        raise MalformedSamples(path, 2, "no data rows")
    if 0 < len(blank) < len(table):
        raise MalformedSamples(path, blank[0], "blank theta, but other rows give theta")
    finite = np.isfinite(table["eps"]) & np.isfinite(table["theta"])
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
        eps=table["eps"][first].reshape(m, n),
        theta=None if blank else table["theta"][first].reshape(m, n),
    )


# -- missing spec ------------------------------------------------------------------------


def missing_to_dict(spec: MissingSpec) -> dict:
    return {
        "hidden": [
            {"id": h.id, "var_p": h.var_p, "var_q": h.var_q, "cov_pq": h.cov_pq}
            for h in spec.hidden
        ]
    }


def missing_from_dict(data: dict) -> MissingSpec:
    return MissingSpec(
        hidden=tuple(
            HiddenNodeInfo(
                int(h["id"]), float(h["var_p"]), float(h["var_q"]), float(h["cov_pq"])
            )
            for h in data["hidden"]
        )
    )


def save_missing(path, spec: MissingSpec):
    Path(path).write_text(json.dumps(missing_to_dict(spec), indent=1))


def load_missing(path) -> MissingSpec:
    return missing_from_dict(json.loads(Path(path).read_text()))


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
    return json.loads(Path(path).read_text())


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


def load_curves(path) -> list[dict]:
    out = []
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        for rec in rd:
            out.append(
                {
                    "task": rec["task"],
                    "m": int(rec["m"]),
                    "seed": int(rec["seed"]),
                    "metric": rec["metric"],
                    "value": float(rec["value"]),
                }
            )
    return out
