"""On-disk formats: network JSON, injection JSON, samples CSV, missing-spec
JSON, result JSON, and the experiment curves CSV.

All writers are deterministic: fixed key order, repr-precision floats.
The JSON readers name the file and the JSON path (such as ``lines[0].x``) of
a missing key, a value of the wrong type, or a value the network or
missing-spec model rejects.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import re
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridForestError, MalformedJSON, MalformedSamples
from .lines import EdgeEstimate
from .missing import MissingSpec
from .network import Line, Node, RadialForest, build_forest
from .parallel import ordered_map
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
    ``at`` within one; ``source`` names its file in errors, as does a
    repeated node id, at its JSON path."""
    rd = _JsonReader(data, source, at)
    rows = rd.rows("nodes")

    def column(key, kind=float):
        return [rd.get(row, key, kind, at) for row, at in rows]

    return rd.build(
        rd.at,
        InjectionModel,
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


# Bytes per block that load_samples parses at once (a block ends at the first
# line ending from there on): large enough to amortise each numpy call and
# each round trip through the worker pool, small enough that a block stays a
# few MB whatever the file size.
_BLOCK_BYTES = 1 << 20
# Rows per task of save_samples, in whole samples: about 200 kB of text, so a
# task is worth a round trip through the worker pool.
_WRITE_ROWS = 1 << 12


def save_samples(path, samples: VoltageSamples):
    """Write the samples CSV: header ``sample,node,eps,theta``, then one row per
    (sample, node) in sample-major order, CRLF line endings and repr floats,
    byte for byte what ``csv.writer`` writes. ``theta`` is left blank on every
    row of magnitude-only data.

    The rows are formatted in tasks of whole samples, about ``_WRITE_ROWS``
    rows each, by ``parallel.ordered_map``: in worker processes, one per
    usable CPU, or in process. Each text is written as it comes, in task
    order, so the bytes do not depend on the workers.
    The file is written to a temporary sibling, which replaces ``path`` only
    once it is whole: an error, or a worker that dies (``BrokenProcessPool``),
    leaves ``path`` as it was. So the directory must be writable, and a
    successful write puts a new file at ``path``, with the default mode in
    place of an old file's mode and owner; where ``path`` is a symlink, the
    file it points to is replaced and the link kept.
    """
    path = Path(path).resolve()
    eps, theta = samples.eps, samples.theta
    m, n = eps.shape
    step = max(1, _WRITE_ROWS // max(n, 1))  # samples per task; no rows at n = 0
    tasks = [
        (j0, eps[j0 : j0 + step], None if theta is None else theta[j0 : j0 + step])
        for j0 in range(0, m, step)
    ]
    format_rows = functools.partial(_format_rows, [f",{node}," for node in samples.node_ids])
    temporary = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        texts = ordered_map(format_rows, tasks)
        with open(temporary, "w", newline="") as fh, contextlib.closing(texts):
            fh.write("sample,node,eps,theta\r\n")
            for text in texts:
                fh.write(text)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)  # left only by a write that failed


def _format_rows(tails, task) -> str:
    """The CSV rows of ``task``, ``(j0, eps, theta)``: the samples j0, j0 + 1, ...
    whose rows of eps (and of theta, unless it is None) are given; ``tails``
    holds the ``,node,`` text of each column."""
    j0, eps, theta = task
    if theta is None:
        rows = [
            f"{j}{tail}{e!r},\r\n"
            for j, eps_j in enumerate(eps.tolist(), j0)
            for tail, e in zip(tails, eps_j)
        ]
    else:
        rows = [
            f"{j}{tail}{e!r},{t!r}\r\n"
            for j, (eps_j, theta_j) in enumerate(zip(eps.tolist(), theta.tolist()), j0)
            for tail, e, t in zip(tails, eps_j, theta_j)
        ]
    return "".join(rows)


_CSV = dict(delimiter=",", quotechar='"', comments=None)  # the fields of a samples line
_SAMPLE_ROW = np.dtype([("sample", "i8"), ("node", "i8"), ("eps", "f8"), ("theta", "f8")])
# A magnitude-only row: the theta cell is read as text, empty when blank.
_BLANK_THETA_ROW = np.dtype([("sample", "i8"), ("node", "i8"), ("eps", "f8"), ("theta", "U1")])


def load_samples(path) -> VoltageSamples:
    """Read a samples CSV written by ``save_samples``.

    The file is UTF-8 text, whatever the locale. LF, CRLF or CR line endings,
    spaces around fields and quoted numbers are accepted. The header is
    exactly the four names ``sample,node,eps,theta``, with the same spaces and
    quotes allowed. Every line after it is one row of exactly four fields, so
    an empty line, a quoted field that spans lines, a fifth field or a byte
    that is not UTF-8 is an error. Every (sample, node) pair must appear
    exactly once, samples are numbered 0..m-1, values are finite, and theta
    is given on every row or on none; when it is not, the first row of the
    smaller side (blank or given) is named. Anything else raises
    MalformedSamples naming the file and the 1-based line.

    The main process reads the header and cuts the data lines into blocks of
    about ``_BLOCK_BYTES`` bytes, each ending just after the first ``\n`` from
    there on, by seeking. ``parallel.ordered_map`` parses the blocks in worker
    processes, one per usable CPU, or in process: each task opens the file,
    reads its byte range, decodes it, splits its lines as text mode with
    ``newline=""`` does (``_read_bytes``) and returns the block's columns
    (``_Block``), or raises the index and message of its first bad line,
    which the main process turns into the file's line number. A worker holds
    one block's text and rows at a time, and narrows the columns it returns:
    sample and node in the narrowest signed integer type that holds them, no
    theta column when no row gives it, and no flag per row for which rows
    give theta when they all agree. numpy's C reader parses every row of a
    block, whose rows of either theta mode are counted; only a block it
    cannot read is read again, in halves, to name its first bad line. A
    path that is not a regular file (a pipe, as ``--data <(...)`` gives) is
    read in process, in the same blocks.

    The main process takes the blocks in file order and holds them all; the
    checks then run over them in file order, and each block is placed at its
    rows' (sample, node) cells of the (m, n) arrays and freed; a row whose
    cell is already taken is the duplicate named. The main process holds
    the blocks, 18 to 32 B per row (19 B for 6400 samples of node ids below
    128: int16 sample and int8 node; 8 B less without theta), plus 17 B per
    cell (9 B without theta); there is no concatenated table and no sort of
    the whole file. A file with fewer rows than m * n cells misses a cell,
    and is named from one sort of its cell indices: the m * n arrays are
    never allocated for it.
    """
    blocks = []  # the _Block of each block, in file order
    try:
        for block in _read_blocks(path):
            blocks.append(block)
    except _BadLine as bad:
        index, msg = bad.args  # the blocks before it hold one row per line
        line = 2 + sum(len(block) for block in blocks) + index
        raise MalformedSamples(path, line, msg) from None

    if not blocks:
        raise MalformedSamples(path, 2, "no data rows")
    starts = np.cumsum([0] + [len(block) for block in blocks])  # first row of each block
    total = int(starts[-1])

    def check(bad, msg):  # bad(block) marks a block's bad rows; row i is line i + 2
        for block, start in zip(blocks, starts):
            k = np.flatnonzero(bad(block))
            if k.size:
                raise MalformedSamples(path, int(start + k[0]) + 2, msg)

    n_given = sum(int(np.count_nonzero(block.gives_theta())) for block in blocks)
    if n_given:  # name the first row of the smaller theta mode
        if n_given < total / 2:
            check(lambda block: block.gives_theta(), "theta given, but other rows leave it blank")
        check(lambda block: ~block.gives_theta(), "blank theta, but other rows give theta")
    check(lambda block: ~block.finite(), "eps and theta must be finite")
    check(
        lambda block: (block.sample < 0) | (block.sample >= np.int64(total)),
        "sample index out of range",
    )
    node_ids = np.unique(np.concatenate([np.unique(block.node) for block in blocks]))
    m, n = max(int(block.sample.max()) for block in blocks) + 1, len(node_ids)

    def cells(block):  # the (sample, node) cell of each row, numbered sample-major
        return block.sample.astype(np.int64) * n + np.searchsorted(node_ids, block.node)

    duplicate = "duplicate (sample, node) row"
    if m * n > total:  # some cell has no row; m * n may be far more than the rows
        cell, repeats = _sorted_repeats(np.concatenate([cells(block) for block in blocks]))
        del blocks
        if repeats.size:
            raise MalformedSamples(path, int(repeats.min()) + 2, duplicate)
        gap = np.flatnonzero(cell != np.arange(len(cell)))
        k = int(gap[0]) if gap.size else len(cell)
        raise MalformedSamples(path, None, f"no row for sample {k // n}, node {node_ids[k % n]}")
    with_theta = blocks[0].theta is not None  # the checks left one theta mode
    eps = np.empty(m * n)
    theta = np.empty(m * n) if with_theta else None
    taken = np.zeros(m * n, bool)
    for b, start in enumerate(starts[:-1]):
        block = blocks[b]
        blocks[b] = None  # free each block once it is placed
        cell = cells(block)
        repeat = taken[cell]
        repeat[_sorted_repeats(cell)[1]] = True
        k = np.flatnonzero(repeat)
        if k.size:
            raise MalformedSamples(path, int(start + k[0]) + 2, duplicate)
        taken[cell] = True
        eps[cell] = block.eps
        if with_theta:
            theta[cell] = block.theta
    # m * n <= total and no cell twice, so every cell has exactly one row
    return VoltageSamples(
        node_ids=node_ids.tolist(),
        eps=eps.reshape(m, n),
        theta=theta.reshape(m, n) if with_theta else None,
    )


@dataclass
class _Block:
    """The rows of one block of a samples CSV, a column each: ``sample`` and
    ``node`` in the narrowest signed integer type that holds the block's
    values (a signed and an unsigned type would promote to float64), then
    ``eps`` and ``theta``, which is None when no row gives it and 0 where a
    row leaves it blank. ``given`` marks the rows that give theta, and is
    None when every row agrees."""

    sample: np.ndarray
    node: np.ndarray
    eps: np.ndarray
    theta: np.ndarray | None
    given: np.ndarray | None = None

    @classmethod
    def of(cls, rows, theta, given=None):
        """The block of the ``_SAMPLE_ROW`` or ``_BLANK_THETA_ROW`` rows
        ``rows``, with its own copy of each column."""
        sample, node = _narrow(rows["sample"]), _narrow(rows["node"])
        return cls(sample, node, rows["eps"].copy(), theta, given)

    def __len__(self):
        return len(self.eps)

    def gives_theta(self):
        """Whether each row gives theta."""
        return np.full(len(self), self.theta is not None) if self.given is None else self.given

    def finite(self):
        """Whether each row's eps and theta (0 where blank) are finite."""
        ok = np.isfinite(self.eps)
        return ok if self.theta is None else ok & np.isfinite(self.theta)


def _narrow(values):
    """A copy of the non-empty integer array ``values`` in the narrowest
    signed integer type that holds them: a signed type holds lo..hi when it
    holds min(lo, -1 - hi)."""
    return values.astype(np.min_scalar_type(min(int(values.min()), -1 - int(values.max()))))


def _sorted_repeats(cell):
    """``cell`` sorted, and the positions in ``cell`` of the entries that
    repeat an earlier one, from one stable sort."""
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    return cell, order[1:][cell[1:] == cell[:-1]]


class _BadLine(Exception):
    """The first bad line of a block: ``args`` is (its index in the block,
    the message)."""


def _read_blocks(path):
    """Yield the ``_Block`` of each block of the samples CSV ``path``, in
    file order, after checking its header; a bad line raises _BadLine."""
    with open(path, "rb") as fh:
        head, rest = _first_line(fh)
        try:
            header = [f.strip(" \t") for f in _fields(head.decode())]
        except UnicodeDecodeError as exc:
            raise MalformedSamples(path, 1, _not_utf8(exc)) from None
        if header != ["sample", "node", "eps", "theta"]:
            raise MalformedSamples(path, 1, f"unexpected samples header {header}")
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # it cannot seek
            yield from map(_read_bytes, _stream_blocks(fh, rest))
            return
        path = os.path.abspath(path)
        tasks = [(path, start, stop) for start, stop in _cuts(fh, len(head))]
    with contextlib.closing(ordered_map(_read_range, tasks)) as results:
        yield from results


# a line ending, as text mode with newline="" splits lines
_LINE_END = re.compile(rb"\r\n?|\n")


def _first_line(fh):
    """The first line of the binary stream ``fh``, with its line ending, and
    the bytes read past it."""
    data = b""
    while True:
        more = fh.read(1 << 16)
        data += more
        end = _LINE_END.search(data)
        if not more or (end and end.end() < len(data)):  # a last "\r" may start "\r\n"
            cut = end.end() if end else len(data)
            return data[:cut], data[cut:]


def _cuts(fh, start):
    """The (start, stop) byte ranges of the blocks of the regular file ``fh``
    from byte ``start``: each ends just after the first ``\n`` from its
    ``_BLOCK_BYTES``-th byte on, the last at the end of the file."""
    size = os.fstat(fh.fileno()).st_size
    while start < size:
        stop = start + _BLOCK_BYTES - 1
        fh.seek(stop)
        while (chunk := fh.read(1 << 12)) and (k := chunk.find(b"\n")) < 0:
            stop += len(chunk)
        stop = stop + k + 1 if chunk else size
        yield start, stop
        start = stop


def _stream_blocks(fh, data):
    """The blocks ``_cuts`` cuts, from a stream that cannot seek: the bytes
    ``data`` already read from it, then the rest of the binary stream ``fh``."""
    data = bytearray(data)
    searched = 0  # the bytes of data known to hold no line ending past the block size
    while True:
        cut = data.find(b"\n", max(_BLOCK_BYTES - 1, searched))
        if cut >= 0:
            yield data[: cut + 1]
            del data[: cut + 1]
            searched = 0
        elif more := fh.read(1 << 16):
            searched = len(data)
            data += more
        else:
            if data:
                yield data
            return


def _read_range(task):
    """``_read_bytes`` of the bytes ``start:stop`` of the file ``path``, where
    ``task`` is ``(path, start, stop)``: a worker's task."""
    path, start, stop = task
    with open(path, "rb") as fh:
        fh.seek(start)
        return _read_bytes(fh.read(stop - start))


def _read_bytes(data):
    """The ``_Block`` of the lines of the non-empty block ``data``
    (``_read_block``), decoded as UTF-8 and split as text mode with
    ``newline=""`` splits them; the first line that is no row, or holds a
    byte that does not decode, raises _BadLine."""
    try:
        text, undecodable = data.decode(), None
    except UnicodeDecodeError as exc:
        text, undecodable = data[: exc.start].decode(), exc
    lines = list(io.StringIO(text, newline=""))
    if undecodable is not None and lines and lines[-1][-1] not in "\r\n":
        lines.pop()  # the start of the line that does not decode
    if lines and (block := _read_block(lines)) is None:
        raise _BadLine(*_bad_line(lines))
    if undecodable is not None:
        raise _BadLine(len(lines), _not_utf8(undecodable))
    return block


def _not_utf8(exc):
    """The message for the UnicodeDecodeError ``exc``."""
    return f"byte {exc.object[exc.start]:#04x} is not UTF-8 text ({exc.reason})"


def _read_block(lines):
    """The ``_Block`` of the lines, one row per line, or None if some line is
    not a row. Lines that do not all read with theta are read with a blank
    theta cell, those with a cell again. A last line that leaves a quote open
    is no row: numpy would close it at the block's end (in a row of numbers,
    an odd count of quotes leaves one open)."""
    if lines[-1].count('"') % 2:
        return None
    rows = _parse_block(lines, _SAMPLE_ROW)
    if rows is not None:
        return _Block.of(rows, rows["theta"].copy())
    text = _parse_block(lines, _BLANK_THETA_ROW)
    if text is None:
        return None
    given = text["theta"] != ""
    if not given.any():
        return _Block.of(text, None)
    rows = _parse_block([lines[k] for k in np.flatnonzero(given)], _SAMPLE_ROW)
    if rows is None:
        return None
    theta = np.zeros(len(text))
    theta[given] = rows["theta"]
    return _Block.of(text, theta, given)


def _parse_block(lines, dtype):
    """One row of ``dtype`` per line, or None if some line is not one."""
    try:
        with warnings.catch_warnings():
            # numpy only warns on a block of empty lines, and numpy 1.x only
            # warns when it truncates "1.5" to an integer
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=dtype, ndmin=1, **_CSV)
    except (ValueError, Warning):
        return None
    return rows if len(rows) == len(lines) else None  # loadtxt skips empty lines


def _bad_line(lines):
    """(index, message) of the first bad one of ``lines``, found by halving
    until one line is left: lines read as a block if and only if each reads
    alone."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _read_block(lines[lo:mid]) is None:
            hi = mid
        else:
            lo = mid
    # with a line ending, which the file's last line may lack, a quote left
    # open keeps it in its field
    fields = _fields(lines[lo].rstrip("\r\n") + "\n")
    if any(f.endswith("\n") for f in fields):
        return lo, "a quoted field spans lines; every row must be one line"
    if len(fields) != 4:
        return lo, f"expected 4 fields sample,node,eps,theta, found {len(fields)}"
    return lo, "expected integer sample,node and numeric eps,theta"


def _fields(line):
    """The text fields of one CSV line, as numpy's reader splits them; a quote
    left open keeps the line ending in its field."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty line, which has no fields
        return np.loadtxt([line], dtype=str, ndmin=2, **_CSV).ravel().tolist()


# -- missing spec ------------------------------------------------------------------------


def missing_to_dict(spec: MissingSpec) -> dict:
    return {"hidden": list(spec.ids)}


def missing_from_dict(data: dict, source=None) -> MissingSpec:
    """The spec of a missing-spec document, ``{"hidden": [ids]}``; ``source``
    names its file in errors, as does a repeated hidden id, at its JSON path."""
    rd = _JsonReader(data, source)
    ids = rd.get(rd.top, "hidden", list, rd.at)
    ids = tuple(rd.check(i, int, f"hidden[{k}]") for k, i in enumerate(ids))
    return rd.build(rd.at, MissingSpec, ids)


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
                "kind": ev.kind,
                "candidate": ev.candidate,
                "residual": ev.residual,
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
    estimates."""
    return _read_json(path)


def result_from_dict(data: dict, source=None) -> tuple[dict[int, int], dict]:
    """The recovered parent map (child -> parent) of a result document, and the
    parts ``experiments.score`` reads: ``inj_hat`` (None if absent) and any
    ``edge_estimates``; ``source`` names its file in errors."""
    rd = _JsonReader(data, source)
    parent = {
        rd.get(e, "child", int, at): rd.get(e, "parent", int, at) for e, at in rd.rows("edges")
    }
    parts = {"inj_hat": None}
    if "injection" in rd.top:
        parts["inj_hat"] = injection_from_dict(rd.top["injection"], source, at="injection")
    if "line_estimates" in rd.top:
        numbers = ("r_hat", "x_hat", "cov_pq_hat", "residual")
        parts["edge_estimates"] = {
            (rd.get(e, "child", int, at), rd.get(e, "parent", int, at)): EdgeEstimate(
                **{key: rd.get(e, key, float, at) for key in numbers},
                root_choice=rd.get(e, "root_choice", str, at),
            )
            for e, at in rd.rows("line_estimates")
        }
    return parent, parts


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
