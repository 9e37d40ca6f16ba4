import csv
import functools
import io
import json
import multiprocessing
import os
import tempfile
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridforest import fileio, parallel
from gridforest.errors import MalformedJSON, MalformedSamples
from gridforest.missing import MissingSpec
from gridforest.network import Node, build_forest
from gridforest.powerflow import InjectionModel, VoltageSamples, sample_voltages
from gridforest.synth import FeederSpec, draw_injections, synth_layout

from conftest import magnitude_only, sorted_load_samples
from test_cli import BLOCK_BYTES, MALFORMED_SAMPLES, blocks_of
from stand_ins import die, tracked_format, tracked_read
from test_parallel import _START_METHODS, _one_cpu, _usable_cpus


@pytest.fixture
def feeder():
    spec = FeederSpec(n_loads=9, n_trees=2, extra_lines=4)
    forest = synth_layout(spec, 13)
    inj = draw_injections(forest.load_ids, 14)
    return forest, inj


def test_network_round_trip(tmp_path, feeder):
    forest, _ = feeder
    path = tmp_path / "net.json"
    fileio.save_network(path, forest)
    back = fileio.load_network(path)
    assert back.parent == forest.parent
    assert back.lines == forest.lines
    assert back.nodes == forest.nodes
    # byte-for-byte stability of a rewrite
    fileio.save_network(tmp_path / "net2.json", back)
    assert (tmp_path / "net.json").read_bytes() == (tmp_path / "net2.json").read_bytes()


def test_injection_round_trip(tmp_path, feeder):
    _, inj = feeder
    path = tmp_path / "inj.json"
    fileio.save_injection(path, inj)
    back = fileio.load_injection(path)
    assert back.node_ids == inj.node_ids
    np.testing.assert_array_equal(back.var_p, inj.var_p)
    np.testing.assert_array_equal(back.cov_pq, inj.cov_pq)
    assert back.distribution == inj.distribution


@pytest.mark.parametrize(
    "value, message",
    [(1.5, "expected an integer, got a number"), (True, "expected an integer, got a boolean")],
)
def test_network_id_must_be_an_integer(feeder, value, message):
    # "2" and 2.0 still read as node 2; a fraction or a boolean does not
    data = fileio.network_to_dict(feeder[0])
    ids = [nd["id"] for nd in data["nodes"]]
    data["nodes"][1]["id"] = value
    with pytest.raises(MalformedJSON, match=rf"^<data>: nodes\[1\]\.id: {message}$"):
        fileio.network_from_dict(data)
    data["nodes"][1]["id"] = float(ids[1])
    data["nodes"][2]["id"] = str(ids[2])
    assert fileio.network_from_dict(data).nodes == feeder[0].nodes


def test_samples_round_trip(tmp_path, feeder):
    forest, inj = feeder
    s = sample_voltages(forest, inj, 7, seed=0)
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, s)
    lines = path.read_bytes().decode().splitlines()
    for newline in (None, "\n", "\r\n"):  # as written, then with other line endings
        if newline is not None:
            path.write_bytes(newline.join(lines).encode() + newline.encode())
        back = fileio.load_samples(path)
        assert back.node_ids == s.node_ids
        np.testing.assert_array_equal(back.eps, s.eps)
        np.testing.assert_array_equal(back.theta, s.theta)


def test_samples_without_theta(tmp_path, feeder):
    forest, inj = feeder
    s = magnitude_only(sample_voltages(forest, inj, 3, seed=1))
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, s)
    back = fileio.load_samples(path)
    assert back.theta is None
    np.testing.assert_array_equal(back.eps, s.eps)


def test_samples_of_a_load_less_forest_are_the_header_alone(tmp_path):
    # zero columns make no row to write, and reading the file back names
    # the missing rows
    forest = build_forest([Node(0, "substation")], [])
    empty = InjectionModel((), [], [], [], [], [])
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, sample_voltages(forest, empty, 5, seed=0))
    assert path.read_bytes() == b"sample,node,eps,theta\r\n"
    with pytest.raises(MalformedSamples, match="line 2: no data rows"):
        fileio.load_samples(path)


@pytest.mark.parametrize(
    "header, ok",
    [
        ("sample, node, eps, theta", True),  # spaces around fields, as on rows
        ('sample,node,eps,"theta"', True),
        ("sample,node,eps,theta,extra", False),
        ("sample,node,eps,theta,", False),
        ("sample,node,eps", False),
        ('sample,node,eps,"theta', False),  # a quote left open
    ],
)
def test_samples_header_follows_the_rows_grammar(tmp_path, feeder, header, ok):
    # the header is exactly the four names, read as the rows are read
    forest, inj = feeder
    s = sample_voltages(forest, inj, 3, seed=1)
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, s)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([header, *lines[1:]]) + "\n")
    if ok:
        np.testing.assert_array_equal(fileio.load_samples(path).eps, s.eps)
    else:
        with pytest.raises(MalformedSamples, match="unexpected samples header") as exc_info:
            fileio.load_samples(path)
        assert exc_info.value.line == 1


def _csv_writer_bytes(s) -> bytes:
    """The per-element csv.writer loop the samples format was defined by."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["sample", "node", "eps", "theta"])
    for j in range(s.m):
        for k, node in enumerate(s.node_ids):
            tv = "" if s.theta is None else repr(float(s.theta[j, k]))
            w.writerow([j, node, repr(float(s.eps[j, k])), tv])
    return buf.getvalue().encode()


@pytest.mark.parametrize("with_theta", [True, False])
def test_samples_bytes_match_csv_writer(tmp_path, feeder, with_theta):
    forest, inj = feeder
    s = sample_voltages(forest, inj, 5, seed=2)
    s = s if with_theta else magnitude_only(s)
    fileio.save_samples(tmp_path / "got.csv", s)
    assert (tmp_path / "got.csv").read_bytes() == _csv_writer_bytes(s)


@pytest.mark.parametrize("with_theta", [True, False])
def test_samples_across_blocks(tmp_path, with_theta):
    # a file of more than two blocks of the reader's own size, whose cuts fall
    # inside samples, read in process
    n = 7
    m = fileio._BLOCK_BYTES // (10 * n) + 1
    rng = np.random.default_rng(5)
    theta = rng.normal(size=(m, n)) if with_theta else None
    s = VoltageSamples(node_ids=range(10, 10 + n), eps=rng.normal(size=(m, n)), theta=theta)
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, s)
    assert path.read_bytes() == _csv_writer_bytes(s)
    assert path.stat().st_size > 2 * fileio._BLOCK_BYTES
    with _one_cpu():
        back = fileio.load_samples(path)
    assert back.node_ids == s.node_ids
    np.testing.assert_array_equal(back.eps, s.eps)
    np.testing.assert_array_equal(back.theta, s.theta)
    # an empty line in the second block: its line, halfway through the block
    bad = path.read_bytes()[: 3 * fileio._BLOCK_BYTES // 2].count(b"\n") + 1
    lines = path.read_text().splitlines()
    lines.insert(bad - 1, "")
    path.write_text("\n".join(lines) + "\n")
    with _one_cpu(), pytest.raises(MalformedSamples) as exc_info:
        fileio.load_samples(path)
    assert exc_info.value.line == bad


def _pool_samples(with_theta):
    """Samples of 7 nodes in three writer tasks, the last one short."""
    n = 7
    m = 2 * (fileio._WRITE_ROWS // n) + 1
    rng = np.random.default_rng(8)
    theta = rng.normal(size=(m, n)) if with_theta else None
    return VoltageSamples(node_ids=range(3, 3 + n), eps=rng.normal(size=(m, n)), theta=theta)


@_START_METHODS
@pytest.mark.parametrize("with_theta", [True, False], ids=["theta", "magnitude"])
def test_pooled_and_in_process_writers_give_csv_writer_bytes(
    monkeypatch, tmp_path, with_theta, start_method
):
    monkeypatch.setattr(parallel, "_START_METHOD", start_method)
    s = _pool_samples(with_theta)
    want = _csv_writer_bytes(s)
    for cpus in (1, 2):
        runners = tmp_path / f"cpus{cpus}"
        runners.mkdir()
        monkeypatch.setattr(fileio, "_format_rows", functools.partial(tracked_format, runners))
        _usable_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        fileio.save_samples(tmp_path / f"{cpus}.csv", s)
        assert (tmp_path / f"{cpus}.csv").read_bytes() == want
        pids = {int(path.name) for path in runners.iterdir()}
        if cpus == 1:
            assert pids == {os.getpid()}  # formatted in process
            continue
        assert pids and os.getpid() not in pids  # formatted in workers only
        assert multiprocessing.active_children() == []
        for pid in pids:  # joined, so reaped: the pid names no process
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert threading.active_count() == threads  # the pool's own threads are gone too
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == ["1.csv", "2.csv"]


def _raise(*args):
    raise RuntimeError("formatting fails")


@_START_METHODS
def test_a_failed_samples_write_leaves_the_path_as_it_was(monkeypatch, tmp_path, start_method):
    # a worker that dies (killed, out of memory) or an error in process leaves
    # no partial samples CSV, which would read back as fewer whole samples
    monkeypatch.setattr(parallel, "_START_METHOD", start_method)
    s = _pool_samples(True)
    path = tmp_path / "samples.csv"
    for cpus, stand_in, error in ((2, die, BrokenProcessPool), (1, _raise, RuntimeError)):
        monkeypatch.setattr(fileio, "_format_rows", stand_in)
        _usable_cpus(monkeypatch, cpus)
        with pytest.raises(error):
            fileio.save_samples(path, s)
        assert list(tmp_path.iterdir()) == []  # no file written
        path.write_bytes(b"kept")
        with pytest.raises(error):
            fileio.save_samples(path, s)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"kept"
        path.unlink()
        assert multiprocessing.active_children() == []


def test_a_samples_write_through_a_symlink_replaces_its_target(tmp_path):
    s = _pool_samples(False)
    target = tmp_path / "data" / "samples.csv"
    target.parent.mkdir()
    target.write_bytes(b"old")
    link = tmp_path / "samples.csv"
    link.symlink_to(target)
    fileio.save_samples(link, s)
    assert link.is_symlink() and target.read_bytes() == _csv_writer_bytes(s)
    assert sorted(p.name for p in target.parent.iterdir()) == ["samples.csv"]


def _blocked_samples(tmp_path, monkeypatch):
    """A samples CSV of about 20 kB, and blocks of 4 kB: five blocks, each
    cut inside a line."""
    monkeypatch.setattr(fileio, "_BLOCK_BYTES", 1 << 12)
    rng = np.random.default_rng(6)
    eps, theta = rng.normal(size=(2, 60, 7))
    samples = VoltageSamples(node_ids=range(1, 8), eps=eps, theta=theta)
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, samples)
    return path, samples


def _corrupt_line(path, line, edit):
    """Rewrite the 1-based ``line`` of ``path``, as bytes, with ``edit``."""
    lines = path.read_bytes().split(b"\r\n")
    lines[line - 1] = edit(lines[line - 1])
    path.write_bytes(b"\r\n".join(lines))


@_START_METHODS
def test_pooled_and_in_process_readers_agree(monkeypatch, tmp_path, start_method):
    monkeypatch.setattr(parallel, "_START_METHOD", start_method)
    path, samples = _blocked_samples(tmp_path, monkeypatch)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(path.read_bytes())
    _corrupt_line(bad, 350, lambda line: line.replace(b",", b",abc", 1))  # in block 4
    errors = set()
    for cpus in (1, 2):
        runners = tmp_path / f"cpus{cpus}"
        runners.mkdir()
        monkeypatch.setattr(fileio, "_read_range", functools.partial(tracked_read, runners))
        _usable_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        back = fileio.load_samples(path)
        assert back.node_ids == samples.node_ids
        assert back.eps.tobytes() == samples.eps.tobytes()
        assert back.theta.tobytes() == samples.theta.tobytes()
        pids = {int(p.name) for p in runners.iterdir()}
        if cpus == 1:
            assert pids == {os.getpid()}  # read in process
        else:
            assert pids and os.getpid() not in pids  # blocks parsed in workers only
            for pid in pids:  # joined, so reaped: the pid names no process
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        with pytest.raises(MalformedSamples) as exc_info:
            fileio.load_samples(bad)
        errors.add((exc_info.value.path, exc_info.value.line, str(exc_info.value)))
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads  # the pool's own threads are gone too
    assert len(errors) == 1 and next(iter(errors))[:2] == (str(bad), 350), errors
    monkeypatch.setattr(fileio, "_read_range", die)
    with pytest.raises(BrokenProcessPool):
        fileio.load_samples(path)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("line", [3, 350], ids=["first_block", "later_block"])
def test_a_byte_that_is_not_utf8_names_its_line(monkeypatch, tmp_path, line):
    # pooled and in process; the lines before it in its block are read first
    path, _ = _blocked_samples(tmp_path, monkeypatch)
    _corrupt_line(path, line, lambda text: text[:5] + b"\xff" + text[6:])
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        with pytest.raises(MalformedSamples, match=r"byte 0xff is not UTF-8") as exc_info:
            fileio.load_samples(path)
        assert (exc_info.value.path, exc_info.value.line) == (str(path), line)
        assert multiprocessing.active_children() == []
    _corrupt_line(path, line - 1, lambda text: text + b",7")  # an earlier bad line wins
    with pytest.raises(MalformedSamples, match="expected 4 fields") as exc_info:
        fileio.load_samples(path)
    assert exc_info.value.line == line - 1
    _corrupt_line(path, 1, lambda text: b"\xe2\x82" + text)  # the header
    with pytest.raises(MalformedSamples, match=r"byte 0xe2 is not UTF-8") as exc_info:
        fileio.load_samples(path)
    assert exc_info.value.line == 1


@pytest.mark.parametrize("nbytes", BLOCK_BYTES + (1 << 12,))
def test_a_stream_is_cut_where_the_file_is(tmp_path, monkeypatch, nbytes):
    # the blocks of a stream that cannot seek are the file's byte ranges
    path, _ = _blocked_samples(tmp_path, monkeypatch)
    monkeypatch.setattr(fileio, "_BLOCK_BYTES", nbytes)
    data = path.read_bytes()
    with open(path, "rb") as fh:
        head, rest = fileio._first_line(fh)
        cuts = list(fileio._cuts(fh, len(head)))
        fh.seek(len(head) + len(rest))
        blocks = list(fileio._stream_blocks(fh, rest))
    assert head == b"sample,node,eps,theta\r\n"
    assert [bytes(block) for block in blocks] == [data[a:b] for a, b in cuts]
    assert cuts[0][0] == len(head) and cuts[-1][1] == len(data)
    assert all(data[b - 1 : b] == b"\n" and b - a >= nbytes for a, b in cuts[:-1])


def test_samples_read_from_a_pipe(tmp_path, monkeypatch):
    # a pipe, as ``--data <(cat samples.csv)`` gives, cannot seek: it is read
    # in process, in the same blocks, with the same rows or error line
    path, _ = _blocked_samples(tmp_path, monkeypatch)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(path.read_bytes())
    _corrupt_line(bad, 350, lambda line: line.replace(b",", b",abc", 1))
    for source in (path, bad):  # the pipe takes the file's place, and its name
        data = source.read_bytes()
        want = _load_outcome(source)
        source.unlink()
        os.mkfifo(source)
        writer = threading.Thread(target=source.write_bytes, args=[data], daemon=True)
        writer.start()
        assert _load_outcome(source) == want
        writer.join()
    assert want[0] == 350


def _traced_peak(call):
    """The tracemalloc peak, in bytes, while ``call()`` runs, and its result
    or the MalformedSamples it raised."""
    tracemalloc.start()
    try:
        out = call()
    except MalformedSamples as exc:
        out = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, out


def test_samples_read_in_bounded_bytes_per_row(tmp_path, monkeypatch):
    # the blocks (33 B a row) and the placed (m, n) arrays (17 B a cell) are
    # the reader's memory: about 51 B a row read here, where a concatenated
    # table sorted whole took 90. Blocks of about 700 rows, read in process,
    # where tracemalloc sees their text and lines too
    monkeypatch.setattr(fileio, "_BLOCK_BYTES", 1 << 15)
    _usable_cpus(monkeypatch, 1)
    rng = np.random.default_rng(4)
    m, n = 2048, 16
    eps, theta = rng.normal(size=(2, m, n))
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, VoltageSamples(node_ids=range(1, n + 1), eps=eps, theta=theta))
    back = fileio.load_samples(path)  # and the one-off costs of a first read
    assert back.eps.tobytes() == eps.tobytes() and back.theta.tobytes() == theta.tobytes()
    peak, _ = _traced_peak(lambda: fileio.load_samples(path))
    assert peak / (m * n) < 64


def test_samples_missing_cells_are_named_without_allocating_them(tmp_path):
    # 3000 rows on the diagonal of 3000 samples x 3000 nodes: the 9 million
    # cells (144 MB as eps and theta) are never allocated to find the gap
    path = tmp_path / "samples.csv"
    path.write_text(
        "sample,node,eps,theta\n" + "".join(f"{k},{k},0.5,0.25\n" for k in range(3000))
    )
    peak, exc = _traced_peak(lambda: fileio.load_samples(path))
    assert isinstance(exc, MalformedSamples) and exc.line is None
    assert "no row for sample 0, node 1" in str(exc)
    assert peak < 4e6


def _small_block_samples(tmp_path, edit):
    """A samples CSV of 6 samples of 3 nodes, after ``edit`` rewrote its data
    rows (row k is line k + 2)."""
    rng = np.random.default_rng(3)
    eps, theta = rng.normal(size=(2, 6, 3))
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, VoltageSamples(node_ids=(1, 2, 3), eps=eps, theta=theta))
    header, *rows = path.read_text().splitlines()
    edit(rows)
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def _rejected_in_any_blocks(path, text, line):
    """Assert that ``path`` fails at ``line`` with ``text`` in blocks of every
    size, down to one line and up to about 4 lines (180 bytes) or the whole
    file."""
    for nbytes in BLOCK_BYTES + (180,):
        with blocks_of(nbytes), pytest.raises(MalformedSamples, match=text) as exc_info:
            fileio.load_samples(path)
        assert exc_info.value.line == line, nbytes


def _blank_theta(rows, *ks):
    for k in ks:
        rows[k] = rows[k].rsplit(",", 1)[0] + ","


@pytest.mark.parametrize(
    "blank, line, text",
    [
        (set(range(18)) - {4, 5, 6, 7, 13}, 6, "theta given, but other rows leave it blank"),
        ({8, 9, 10, 11}, 10, "blank theta, but other rows give theta"),
        (set(range(9)), 2, "blank theta, but other rows give theta"),  # a tie
    ],
    ids=["given_in_blocks_2_and_4", "blank_block_3", "tie"],
)
def test_samples_theta_mode_changes_between_blocks(tmp_path, blank, line, text):
    # the modes are counted over every block; the first row of the smaller
    # side is named, the blank side on a tie (the ids count blocks of 4 rows)
    path = _small_block_samples(tmp_path, lambda rows: _blank_theta(rows, *blank))
    _rejected_in_any_blocks(path, text, line)


def _set_cell(rows, k, field, value):
    cells = rows[k].split(",")
    cells[field] = value
    rows[k] = ",".join(cells)


def test_samples_bad_line_after_a_mixed_block(tmp_path):
    # a block mixes the theta modes; the bad eps in a later block is named first
    def edit(rows):
        _blank_theta(rows, 1)
        _set_cell(rows, 9, 2, "abc")

    path = _small_block_samples(tmp_path, edit)
    _rejected_in_any_blocks(path, "expected integer", 11)


@pytest.mark.parametrize(
    "field, value",
    [(2, "0.1_5"), (0, "1_0"), (0, "\u0661"), (3, "0.1_5")],
    ids=["eps_underscore", "sample_underscore", "sample_arabic_indic_digit", "theta_underscore"],
)
def test_samples_numbers_are_numpy_numbers(tmp_path, field, value):
    # int() and float() read "1_0", "0.1_5" and the Arabic-Indic digit one;
    # numpy's reader, the one grammar of the file, does not; the bad line
    # shares its block with a row of blank theta
    def edit(rows):
        _blank_theta(rows, 8)
        _set_cell(rows, 9, field, value)

    path = _small_block_samples(tmp_path, edit)
    _rejected_in_any_blocks(path, "expected integer", 11)


def _open_quote(lines, k, field):
    """Open a quote at the start of field ``field`` (modulo the fields there
    are) of line ``k``, which the line does not close."""
    cells = lines[k].split(",")
    cells[field % len(cells)] = '"' + cells[field % len(cells)]
    lines[k] = ",".join(cells)


def _load_outcome(path, load=fileio.load_samples):
    """The arrays ``load`` reads from ``path``, or its error line and message."""
    try:
        s = load(path)
    except MalformedSamples as exc:
        return exc.line, str(exc)
    theta = None if s.theta is None else s.theta.tobytes()
    return s.node_ids, s.eps.tobytes(), theta


def _shuffle_rows(lines):
    rows = lines[1:]
    np.random.default_rng(len(rows)).shuffle(rows)
    lines[1:] = rows


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(3, 5),
    n=st.integers(2, 4),
    with_theta=st.booleans(),
    corrupt=st.sampled_from(
        [None, _shuffle_rows] + [corrupt for corrupt, _line, _text in MALFORMED_SAMPLES]
    ),
    quote=st.one_of(st.none(), st.tuples(st.integers(1, 30), st.integers(0, 3))),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    last_newline=st.booleans(),
)
def test_samples_read_the_same_in_any_blocks(
    m, n, with_theta, corrupt, quote, newline, last_newline
):
    # the rows, or the error and its line, do not depend on where the reader
    # cuts the file into blocks, and are those of the whole-file sort oracle:
    # a quote left open on a block's last line fails as it does before the
    # next line
    rng = np.random.default_rng(m * n)
    theta = rng.normal(size=(m, n)) if with_theta else None
    samples = VoltageSamples(node_ids=range(1, n + 1), eps=rng.normal(size=(m, n)), theta=theta)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        fileio.save_samples(path, samples)
        lines = path.read_text().splitlines()
        if corrupt is not None:
            corrupt(lines)
        if quote is not None and len(lines) > 1:
            _open_quote(lines, 1 + (quote[0] - 1) % (len(lines) - 1), quote[1])
        path.write_text(newline.join(lines) + (newline if last_newline else ""), newline="")
        outcomes = set()
        for nbytes in BLOCK_BYTES:
            with blocks_of(nbytes):
                outcomes.add(_load_outcome(path))
        assert outcomes == {_load_outcome(path, sorted_load_samples)}, outcomes


def test_samples_reject_a_quote_left_open_on_the_last_line(tmp_path):
    # numpy closes the quote at the end of its input; the file has no row
    # that ends inside a quote
    rng = np.random.default_rng(2)
    samples = VoltageSamples(node_ids=(1, 2), eps=rng.normal(size=(2, 2)), theta=None)
    path = tmp_path / "samples.csv"
    fileio.save_samples(path, samples)
    lines = path.read_text().splitlines()
    _open_quote(lines, 4, 3)
    path.write_text("\n".join(lines), newline="")  # no line ending after the quote
    with pytest.raises(MalformedSamples, match="a quoted field spans lines") as exc_info:
        fileio.load_samples(path)
    assert exc_info.value.line == 5


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 1e16, -1e16, 0.1)


@settings(max_examples=60, deadline=None)
@given(
    node_ids=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True),
    m=st.integers(1, 6),
    with_theta=st.booleans(),
    data=st.data(),
)
def test_samples_round_trip_property(node_ids, m, with_theta, data):
    value = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    shape = (m, len(node_ids))
    table = st.lists(value, min_size=m * len(node_ids), max_size=m * len(node_ids))
    eps = np.reshape(data.draw(table), shape)
    theta = np.reshape(data.draw(table), shape) if with_theta else None
    s = VoltageSamples(node_ids=node_ids, eps=eps, theta=theta)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        fileio.save_samples(path, s)
        assert path.read_bytes() == _csv_writer_bytes(s)
        back = fileio.load_samples(path)
    order = np.argsort(node_ids)  # the reader returns columns by ascending node id
    assert back.node_ids == tuple(np.asarray(node_ids)[order].tolist())
    np.testing.assert_array_equal(back.eps.view(np.int64), eps[:, order].view(np.int64))
    if with_theta:
        np.testing.assert_array_equal(back.theta.view(np.int64), theta[:, order].view(np.int64))
    else:
        assert back.theta is None


_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_POSITIVE = st.floats(min_value=5e-324, max_value=1e300)


@st.composite
def networks(draw):
    """A synthetic forest with open tie lines and arbitrary positive impedances."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(n, 3)))
    extra = draw(st.integers(0, min(3, (n + k) * (n + k - 1) // 2 - n)))
    forest = synth_layout(FeederSpec(n_loads=n, n_trees=k, extra_lines=extra), draw(st.integers(0, 99)))
    lines = [replace(ln, r=draw(_POSITIVE), x=draw(_POSITIVE)) for ln in forest.lines]
    return build_forest([Node(i, role) for i, role in forest.nodes.items()], lines)


@st.composite
def injections(draw):
    """An injection model on distinct ids: finite means, non-negative
    variances and a covariance inside the Cauchy-Schwarz bound."""
    ids = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6, unique=True))
    n = len(ids)
    variance = st.floats(min_value=0.0, max_value=1e300)
    var_p, var_q = (np.array(draw(st.lists(variance, min_size=n, max_size=n))) for _ in range(2))
    rho = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return InjectionModel(
        node_ids=ids,
        mu_p=draw(st.lists(_FINITE, min_size=n, max_size=n)),
        mu_q=draw(st.lists(_FINITE, min_size=n, max_size=n)),
        var_p=var_p,
        var_q=var_q,
        cov_pq=rho * np.sqrt(var_p) * np.sqrt(var_q),
        distribution=draw(st.sampled_from(("gaussian", "uniform", "laplace"))),
    )


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(forest=networks())
def test_network_json_round_trip_property(forest):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.json"
        fileio.save_network(path, forest)
        back = fileio.load_network(path)
    assert back.nodes == forest.nodes
    assert back.lines == forest.lines
    assert [_bits([ln.r, ln.x]) for ln in back.lines] == [_bits([ln.r, ln.x]) for ln in forest.lines]
    assert back.parent == forest.parent


@settings(max_examples=60, deadline=None)
@given(inj=injections())
def test_injection_json_round_trip_property(inj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "injection.json"
        fileio.save_injection(path, inj)
        back = fileio.load_injection(path)
    assert back.node_ids == inj.node_ids
    assert back.distribution == inj.distribution
    for name in ("mu_p", "mu_q", "var_p", "var_q", "cov_pq"):
        assert _bits(getattr(back, name)) == _bits(getattr(inj, name))


def missing_specs():
    """A missing spec on distinct ids."""
    ids = st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True)
    return ids.map(lambda ids: MissingSpec(tuple(ids)))


@settings(max_examples=60, deadline=None)
@given(spec=missing_specs())
def test_missing_spec_json_round_trip_property(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "missing.json"
        fileio.save_missing(path, spec)
        back = fileio.load_missing(path)
    assert back == spec


@settings(max_examples=60, deadline=None)
@given(forest=networks(), inj=st.none() | injections())
def test_result_json_round_trip_property(forest, inj):
    # eval reads back the recovered parents and the injection estimate
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        fileio.save_result(path, fileio.result_to_dict(forest, inj_hat=inj))
        parent, parts = fileio.result_from_dict(fileio.load_result(path), path)
    assert parent == forest.parent
    assert "edge_estimates" not in parts
    back = parts["inj_hat"]
    if inj is None:
        assert back is None
        return
    assert back.node_ids == inj.node_ids
    assert back.distribution == inj.distribution
    for name in ("mu_p", "mu_q", "var_p", "var_q", "cov_pq"):
        assert _bits(getattr(back, name)) == _bits(getattr(inj, name))


# keys a reader defaults when absent; null is still no value of their type
_OPTIONAL_KEYS = {"status", "distribution", "injection"}

# what each kind of document is read with, and the keys of it nothing reads
_READERS = {
    "network": (fileio.load_network, set()),
    "injection": (fileio.load_injection, set()),
    "missing": (fileio.load_missing, set()),
    "result": (lambda path: fileio.result_from_dict(fileio.load_result(path), path),
               {"r", "x", "substations"}),
}


def _value_paths(value, keys=(), at=""):
    """(keys, JSON path) of every value held by an object in a document,
    however deeply nested in objects and arrays."""
    if isinstance(value, dict):
        for key, item in value.items():
            where = f"{at}.{key}" if at else key
            yield (*keys, key), where
            yield from _value_paths(item, (*keys, key), where)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _value_paths(item, (*keys, k), f"{at}[{k}]")


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_READERS)), forest=networks(), inj=injections(),
       spec=missing_specs(), null=st.booleans(), data=st.data())
def test_json_missing_or_null_key_property(kind, forest, inj, spec, null, data):
    # deleting a required key, or setting any key that is read to null, is
    # MalformedJSON at that key's JSON path, never a KeyError or a TypeError
    doc = {
        "network": lambda: fileio.network_to_dict(forest),
        "injection": lambda: fileio.injection_to_dict(inj),
        "missing": lambda: fileio.missing_to_dict(spec),
        "result": lambda: fileio.result_to_dict(forest, inj_hat=inj),
    }[kind]()
    load, unread = _READERS[kind]
    paths = [
        p for p in _value_paths(doc)
        if p[0][-1] not in unread and (null or p[0][-1] not in _OPTIONAL_KEYS)
    ]
    keys, where = data.draw(st.sampled_from(paths))
    holder = doc
    for key in keys[:-1]:
        holder = holder[key]
    if null:
        holder[keys[-1]] = None
    else:
        del holder[keys[-1]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedJSON) as exc_info:
            load(path)
    assert exc_info.value.where == where
    assert exc_info.value.path == str(path)


def test_missing_spec_round_trip(tmp_path):
    spec = MissingSpec((4, 9))
    path = tmp_path / "missing.json"
    fileio.save_missing(path, spec)
    assert json.loads(path.read_text()) == {"hidden": [4, 9]}
    assert fileio.load_missing(path) == spec


@pytest.mark.parametrize(
    "hidden, where, message",
    [
        # the former format, which also carried each node's statistics
        ([{"id": 4, "var_p": 1.5, "var_q": 0.9, "cov_pq": 0.4}], "hidden[0]",
         "expected an integer, got an object"),
        ([4, 9.5], "hidden[1]", "expected an integer, got a number"),
        ([4, 9, 4], "hidden[2]", "duplicate hidden node id 4"),
        ({"4": 1}, "hidden", "expected an array, got an object"),
    ],
    ids=["old_format", "fractional_id", "repeated_id", "not_an_array"],
)
def test_missing_spec_rejects_a_bad_entry(tmp_path, hidden, where, message):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"hidden": hidden}))
    with pytest.raises(MalformedJSON) as exc_info:
        fileio.load_missing(path)
    assert (exc_info.value.path, exc_info.value.where) == (str(path), where)
    assert str(exc_info.value) == f"{path}: {where}: {message}"


def test_curves_round_trip(tmp_path):
    rows = [("learn", 100, 0, "struct_err", 0.25), ("learn", 100, 1, "struct_err", 0.0)]
    path = tmp_path / "curves.csv"
    fileio.save_curves(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "task,m,seed,metric,value"
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back[0] == {"task": "learn", "m": "100", "seed": "0", "metric": "struct_err", "value": "0.25"}
    assert [float(rec["value"]) for rec in back] == [0.25, 0.0]


def test_result_dict_shape(feeder):
    forest, inj = feeder
    data = fileio.result_to_dict(forest, inj_hat=inj, metrics={"struct_err": 0.0})
    assert {e["child"] for e in data["edges"]} == set(forest.load_ids)
    assert data["metrics"]["struct_err"] == 0.0
    assert len(data["injection"]["nodes"]) == forest.n_loads
