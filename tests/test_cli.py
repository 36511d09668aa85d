import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darcat import dar, independence
from darcat.cli import _read_states, main
from darcat.core import StateSpace, parse_series, serialize_series
from darcat.dar import DarModel, MissingDarModel, simulate_with_missing


@pytest.fixture
def states2(tmp_path):
    # matches the numeric labels the simulate subcommand writes by default
    p = tmp_path / "states.txt"
    p.write_text("1\n2\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_writes_n_plus_one_rows(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run(capsys, "simulate", "--alpha", "0", "--pi", "0.5,0.5", "--n", "100", "--seed", "7", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 102
    assert "simulated 101 observations" in err


def test_simulate_deterministic_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--alpha", "0.5", "--pi", "0.3,0.7", "--n", "200", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_simulate_beta_adds_missing_cells(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = run(
        capsys, "simulate", "--alpha", "0", "--pi", "0.5,0.5", "--n", "2000", "--seed", "3",
        "--beta", "0.3", "--out", str(out),
    )
    assert code == 0
    na = sum(1 for ln in out.read_text().splitlines()[1:] if ln.endswith(",NA"))
    assert na / 2001 == pytest.approx(0.3, abs=0.05)


def test_simulate_rejects_bad_pi(capsys):
    code, _, err = run(capsys, "simulate", "--alpha", "0", "--pi", "0.5,0.9", "--n", "10")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "message, expected",
    [
        (
            "Unable to allocate 44.7 GiB for an array with shape (1, 6000000001) and data type float64",
            "error: out of memory: Unable to allocate 44.7 GiB for an array with shape (1, 6000000001) and data type float64\n",
        ),
        ("", "error: out of memory\n"),
    ],
)
def test_an_allocation_that_fails_exits_2_naming_it(monkeypatch, capsys, message, expected):
    # the kernel is made to fail as numpy does, without asking for the memory
    def fail(*_):
        raise MemoryError(message) if message else MemoryError

    monkeypatch.setattr(dar, "_runs", fail)
    code, out, err = run(capsys, "simulate", "--alpha", "0.5", "--pi", "0.5,0.5", "--n", "10")
    assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["simulate", "--alpha", "0.5", "--pi", "0.5,0.5", "--n", str(10**18)], f"n={10**18}"),
        (["simulate", "--alpha", "0.5", "--pi", "0.5,0.5", "--n", str(10**20), "--beta", "0.1"], f"n={10**20}"),
        (["reproduce-tables", "--m", str(10**20)], f"m={10**20}"),
    ],
    ids=["simulate_too_big", "simulate_too_many_dimensions", "reproduce_tables"],
)
def test_a_size_numpy_refuses_outright_exits_2_naming_it(capsys, argv, named):
    # numpy would raise ValueError for these sizes without allocating; the command refuses them first
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {named} is too large: numpy cannot allocate") and err.count("\n") == 1


def test_fit_dar_iid_fixture(tmp_path, capsys, states2):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--alpha", "0", "--pi", "0.5,0.5", "--n", "400", "--seed", "14", "--out", str(out)]) == 0
    capsys.readouterr()
    code, text, _ = run(capsys, "fit-dar", str(out), "--states", states2)
    assert code == 0
    assert "alpha1 (MLE)" in text
    assert text.count("accept") == 3  # iid data: none of the tests rejects


def test_fit_dar_reports_missing_fraction(tmp_path, capsys, states2):
    model = MissingDarModel(DarModel.from_pi(0.3, np.array([0.5, 0.5])), 0.7)
    series = simulate_with_missing(model, 300, seed=8)
    f = tmp_path / "gappy.csv"
    f.write_text(serialize_series(series))
    code, text, _ = run(capsys, "fit-dar", str(f), "--states", states2)
    assert code == 0
    expected = series.n_missing / len(series)
    assert f"beta_hat (missing probability): {expected:.4f}" in text
    assert "gap-aware" in text
    assert "longest-segment" in text


def test_fit_dar_concatenates_files(tmp_path, capsys, states2):
    for i in range(4):
        s = simulate_with_missing(MissingDarModel(DarModel.from_pi(0.4, np.array([0.5, 0.5])), 0.1), 51, seed=i)
        (tmp_path / f"y{i}.csv").write_text(serialize_series(s))
    files = [str(tmp_path / f"y{i}.csv") for i in range(4)]
    code, text, _ = run(capsys, "fit-dar", *files, "--states", states2)
    assert code == 0
    assert "208 positions" in text


def test_fit_dar_csv_format(tmp_path, capsys, states2):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--alpha", "0.5", "--pi", "0.5,0.5", "--n", "100", "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    code, text, _ = run(capsys, "fit-dar", str(out), "--states", states2, "--format", "csv")
    assert code == 0
    header, row = text.strip().splitlines()
    assert header.startswith("pi_hat,alpha1,")
    assert len(header.split(",")) == len(row.split(","))


def test_test_subcommand_drop_policy(tmp_path, capsys, states2):
    (tmp_path / "g.csv").write_text("t,value\n" + "".join(
        f"{i},{v}\n" for i, v in enumerate(["1", "NA", "1", "2", "2", "1", "NA", "2", "1", "2"])
    ))
    code, text, err = run(capsys, "test", str(tmp_path / "g.csv"), "--states", states2, "--missing-policy", "drop")
    assert code == 0
    assert "drop" in err
    assert "chi_square" in text and "longest_run" in text


def test_fit_glm_both_families(tmp_path, capsys):
    states4 = tmp_path / "states4.txt"
    states4.write_text("1\n2\n3\n4\n")
    out = tmp_path / "s.csv"
    assert main(["simulate", "--alpha", "0.8", "--pi", "0.25,0.25,0.25,0.25", "--n", "200", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    code, text, _ = run(capsys, "fit-glm", str(out), "--states", str(states4), "--family", "both")
    assert code == 0
    assert "family: categorical" in text and "family: ordinal" in text
    assert "min AIC" in text
    # the sparse lag-2 categorical cell degrades to NA without hurting the rest
    assert "NA" in text


def test_fit_glm_markdown_format(tmp_path, capsys):
    states4 = tmp_path / "states4.txt"
    states4.write_text("1\n2\n3\n4\n")
    out = tmp_path / "s.csv"
    assert main(["simulate", "--alpha", "0.5", "--pi", "0.25,0.25,0.25,0.25", "--n", "150", "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    code, text, _ = run(capsys, "fit-glm", str(out), "--states", str(states4), "--family", "ordinal", "--format", "md")
    assert code == 0
    assert "| lag | params |" in text


def test_fit_glm_winner_under_strong_dependence(tmp_path, capsys):
    states3 = tmp_path / "states3.txt"
    states3.write_text("1\n2\n3\n")
    out = tmp_path / "s.csv"
    assert main(["simulate", "--alpha", "0.8", "--pi", "0.34,0.33,0.33", "--n", "300", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    code, text, _ = run(capsys, "fit-glm", str(out), "--states", str(states3), "--family", "categorical")
    assert code == 0
    winner = [ln for ln in text.splitlines() if "min AIC" in ln]
    assert len(winner) == 1 and winner[0].strip().startswith("1")


def test_reproduce_tables_smoke(tmp_path, capsys):
    code, _, err = run(capsys, "reproduce-tables", "--m", "2", "--out", str(tmp_path / "tables"), "--format", "csv")
    assert code == 0
    files = sorted((tmp_path / "tables").glob("table*.csv"))
    assert len(files) == 4
    for f in files:
        lines = f.read_text().splitlines()
        assert lines[0] == "alpha,n,pi_hat,alpha1,m1,alpha2,m2"
        assert len(lines) == 16  # header + 5 alphas x 3 ns


def test_missing_states_flag_errors(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--alpha", "0", "--pi", "0.5,0.5", "--n", "20", "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    # required by the parser, so -h shows it as required and its absence is a usage error
    for command in ("fit-dar", "test", "fit-glm"):
        with pytest.raises(SystemExit) as exc:
            main([command, str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage: darcat {command} [-h] --states STATES")
        assert captured.err.endswith(f"darcat {command}: error: the following arguments are required: --states\n")


def test_unknown_label_errors(tmp_path, capsys, states2):
    f = tmp_path / "bad.csv"
    f.write_text("t,value\n0,1\n1,Z\n")
    code, _, err = run(capsys, "fit-dar", str(f), "--states", states2)
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["fit-dar", "{dir}/latin1.csv"], 2, "not UTF-8"),
        (["fit-dar", "{dir}"], 2, "Is a directory"),
        (["fit-glm", "{dir}/s.csv", "--lags", "0,x"], 2, "--lags"),
        (["fit-glm", "{dir}/s.csv", "--lags", "5"], 2, "--lags"),
        (["fit-dar", "{dir}/s.csv", "--level", "2"], 2, "--level"),
        (["test", "{dir}/s.csv", "--level", "-1"], 2, "--level"),
        (["fit-dar", "{dir}/s.csv"], 0, ""),  # the states file starts with a byte-order mark
    ],
)
def test_bad_input_exits_2_with_named_error_and_bom_is_skipped(tmp_path, capsys, args, code, message):
    (tmp_path / "s.csv").write_text("t,value\n0,A\n1,B\n2,A\n3,B\n4,B\n5,A\n")
    (tmp_path / "latin1.csv").write_bytes("t,value\n0,A\n1,\u00e9\n".encode("latin-1"))
    (tmp_path / "states.txt").write_bytes(b"\xef\xbb\xbfA\nB\n")
    got, _, err = run(capsys, *[a.format(dir=tmp_path) for a in args], "--states", str(tmp_path / "states.txt"))
    assert got == code
    assert message in err
    assert err.startswith("error: ") == (code == 2)


SERIES = "t,value\n0,A\n1,B\n2,A\n3,B\n4,B\n5,A\n6,A\n7,NA\n8,B\n"
BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "data",
    [
        BOM + SERIES.encode(),
        SERIES.replace("\n", "\r\n").encode(),
        SERIES.replace("\n", "\r").encode(),
        SERIES.replace("\n", "\x85").encode(),
        SERIES.replace("\n", "\u2028").encode(),
        BOM + SERIES.replace("\n", "\u2029").encode(),
        SERIES.replace("t,value", "t,valeur é").encode(),  # not ASCII, so decoded to check it
    ],
    ids=["bom", "crlf", "cr", "u0085", "u2028", "bom-u2029", "non-ascii-header"],
)
@pytest.mark.parametrize("fmt", ["txt", "csv"])
def test_a_series_file_reads_as_its_plain_text(tmp_path, capsys, data, fmt):
    """A series file is read as bytes: a byte-order mark and every line break give what "\\n" does."""
    path, states = tmp_path / "s.csv", tmp_path / "states.txt"
    states.write_text("A\nB\n")
    argv = ["fit-dar", str(path), "--states", str(states), "--format", fmt]
    path.write_text(SERIES)
    plain = run(capsys, *argv)
    path.write_bytes(data)
    assert run(capsys, *argv) == plain
    assert plain[0] == 0


@pytest.mark.parametrize("mark", [b"", BOM], ids=["no-mark", "mark"])
def test_a_series_file_that_is_not_utf8_is_refused_naming_the_byte(tmp_path, capsys, mark):
    """The byte offset counts from after a byte-order mark, as when the file was decoded whole."""
    path, states = tmp_path / "s.csv", tmp_path / "states.txt"
    states.write_text("a\nb\n")
    path.write_bytes(mark + b"t,value\n0,a\n1,\xe9\n")
    code, out, err = run(capsys, "fit-dar", str(path), "--states", str(states))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: not UTF-8 text (invalid continuation byte at byte 14)\n"


COMMANDS = {
    "simulate": ["simulate", "--alpha", "0", "--pi", "0.5,0.5", "--n", "10"],
    "fit-dar": ["fit-dar", "{dir}/s.csv", "--states", "{dir}/states.txt"],
    "test": ["test", "{dir}/s.csv", "--states", "{dir}/states.txt"],
    "fit-glm": ["fit-glm", "{dir}/s.csv", "--states", "{dir}/states.txt"],
    "reproduce-tables": ["reproduce-tables", "--m", "1"],
}


@pytest.mark.parametrize(
    "command, option",
    [
        ("simulate", ["--level", "0.1"]),
        ("simulate", ["--missing-policy", "drop"]),
        ("simulate", ["--format", "csv"]),
        ("fit-dar", ["--seed", "3"]),
        ("fit-dar", ["--format", "md"]),
        ("test", ["--seed", "3"]),
        ("test", ["--out", "{dir}/x.txt"]),
        ("test", ["--format", "csv"]),
        ("fit-glm", ["--level", "0.1"]),
        ("fit-glm", ["--seed", "3"]),
        ("fit-glm", ["--missing-policy", "drop"]),
        ("reproduce-tables", ["--states", "{dir}/states.txt"]),
        ("reproduce-tables", ["--level", "0.1"]),
        ("reproduce-tables", ["--missing-policy", "drop"]),
        ("reproduce-tables", ["--markdown"]),
    ],
)
def test_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, option):
    (tmp_path / "s.csv").write_text("t,value\n0,A\n1,B\n2,A\n3,B\n4,B\n5,A\n")
    (tmp_path / "states.txt").write_text("A\nB\n")
    argv = [a.format(dir=tmp_path) for a in COMMANDS[command] + option]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and option[0] in err
    assert err.startswith(f"usage: darcat {command} ")
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize(
    "command, fmt",
    [("simulate", []), ("fit-dar", []), ("fit-dar", ["--format", "csv"]), ("fit-glm", []), ("fit-glm", ["--format", "md"])],
)
def test_unwritable_out_prints_nothing_but_the_error(tmp_path, capsys, command, fmt):
    (tmp_path / "s.csv").write_text("t,value\n0,A\n1,B\n2,A\n3,B\n4,B\n5,A\n")
    (tmp_path / "states.txt").write_text("A\nB\n")
    (tmp_path / "out").mkdir()
    argv = [a.format(dir=tmp_path) for a in COMMANDS[command] + fmt + ["--out", "{dir}/out"]]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Is a directory" in err


@pytest.mark.parametrize(
    "command, series, states, code, message, count",
    [
        ("fit-dar", "t,value\r\n0,A\r\n1,B\r\n2,A\r\n3,B\r\n4,B\r\n5,A\r\n", "A\nB\n", 0, "6 positions", 1),
        ("fit-dar", "t,value\n0,A\n1,B\n", "A\nB\nA\n", 2, "pairwise distinct", 1),
        ("fit-dar", 't,value\n"0,5",A\n1,B\n', "A\nB\n", 2, "line 2: expected 2 columns, got 3", 1),
        ("fit-dar", "t,value\n0,NA\n1,NA\n2,NA\n", "A\nB\n", 2, "series has no observed value", 1),
        ("fit-glm", "t,value\n0,NA\n1,NA\n2,NA\n", "A\nB\n", 0, "NA      -   (every candidate row touches a missing value)", 6),
        # alpha2 and the three tests
        ("fit-dar", "t,value\n0,A\n1,A\n2,A\n3,A\n4,A\n", "A\nB\n", 0, ": NA (no usable test series)", 4),
        ("test", "t,value\n0,A\n1,A\n2,A\n3,A\n4,A\n", "A\nB\n", 2, "only one category observed", 1),
    ],
    ids=[
        "crlf",
        "duplicate-label",
        "quoted-comma",
        "all-missing-fit-dar",
        "all-missing-fit-glm",
        "one-category-fit-dar",
        "one-category-test",
    ],
)
def test_edge_case_inputs(tmp_path, capsys, command, series, states, code, message, count):
    (tmp_path / "s.csv").write_bytes(series.encode())
    (tmp_path / "states.txt").write_text(states)
    got, out, err = run(capsys, command, str(tmp_path / "s.csv"), "--states", str(tmp_path / "states.txt"))
    assert got == code
    assert (out + err).count(message) == count
    assert err.startswith("error: ") == (code == 2)


STATES_FILES = {
    "not-utf8": (b"AB\xe9\n", "error: {path}: not UTF-8 text (invalid continuation byte at byte 2)\n"),
    "duplicate-labels": (b"A\nB\nA\n", "error: state space labels must be pairwise distinct\n"),
    "empty": (b"", "error: state space needs at least 2 categories, got 0\n"),
    "bom-crlf": (BOM + b"A\r\nB\r\n", None),  # read as "A\nB\n"
    "cr": (b"A\rB\r", None),
    "u0085": ("A\x85B\x85".encode(), None),
    "u2028": ("A\u2028B\u2028".encode(), None),
}


@pytest.mark.parametrize("name", sorted(STATES_FILES))
@pytest.mark.parametrize("command", ["simulate", "fit-dar", "test", "fit-glm"])
def test_a_states_file_is_refused_by_name_or_read_as_its_plain_text(tmp_path, capsys, command, name):
    """Every command that reads a states file refuses a bad one with one ``error: `` line, and skips a mark and CRs."""
    data, error = STATES_FILES[name]
    states = tmp_path / "states.txt"
    (tmp_path / "s.csv").write_text(SERIES)
    argv = [a.format(dir=tmp_path) for a in COMMANDS[command]] + ["--states", str(states)] * (command == "simulate")
    states.write_bytes(b"A\nB\n")
    plain = run(capsys, *argv)
    states.write_bytes(data)
    if error is None:
        assert run(capsys, *argv) == plain and plain[0] == 0
    else:
        assert run(capsys, *argv) == (2, "", error.format(path=states))


def test_alpha_just_below_one(tmp_path, capsys, states2):
    """alpha = 1 - 1e-9 freezes the chain in its first state: named NA results, never a crash."""
    path = str(tmp_path / "f.csv")
    code, _, _ = run(capsys, "simulate", "--alpha", "0.999999999", "--pi", "0.3,0.7", "--n", "500", "--seed", "3", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "fit-dar", path, "--states", states2)
    assert code == 0
    assert "  alpha1 (MLE): 1.0000  [not admissible]\n" in out
    for test in ("chi_square", "runs_count", "longest_run"):
        assert f"  {test}: NA (no usable test series)\n" in out
    code, out, _ = run(capsys, "fit-glm", path, "--states", states2, "--family", "both", "--format", "txt")
    assert code == 0
    na_rows = [line.split() for line in out.splitlines() if "NA" in line]
    assert [row[:5] for row in na_rows] == [[str(lag), "NA", "NA", "NA", str(501 - lag)] for lag in (0, 1, 2)] * 2
    assert out.count("(response takes fewer than 2 distinct values)") == 6


def test_seed_help_names_the_seed_used(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert "random seed (default 2)" in capsys.readouterr().out
    _, _, err = run(capsys, "simulate", "--alpha", "0", "--pi", "0.5,0.5", "--n", "3")
    assert "seed=2;" in err


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--alpha", "0.5", "--pi", "0.5,0.5", "--n", "5"], ["reproduce-tables", "--m", "2"]],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"darcat {argv[0]}: error: argument --seed: must be a nonnegative integer, got -1\n")
    assert not (tmp_path / "out").exists()


def test_fit_dar_reads_a_million_rows_of_text_labels_with_missing_cells(tmp_path, capsys):
    rng = np.random.default_rng(1)
    k, n = 20, 10**6
    labels = [f"species {chr(ord('a') + j)}" for j in range(k)]
    cells = np.array(labels + ["NA"])[np.where(rng.random(n + 1) < 0.01, k, rng.integers(0, k, n + 1))]
    (tmp_path / "states.txt").write_text("\n".join(labels) + "\n")
    (tmp_path / "s.csv").write_text("t,value\n" + "".join(f"{t},{v}\n" for t, v in enumerate(cells.tolist())))
    code, out, err = run(capsys, "fit-dar", str(tmp_path / "s.csv"), "--states", str(tmp_path / "states.txt"))
    assert code == 0 and err == ""
    assert f"  {n + 1} positions, k={k} categories, {np.count_nonzero(cells == 'NA')} missing\n" in out


def test_blank_lines_in_the_states_file_are_skipped(tmp_path, capsys):
    (tmp_path / "s.csv").write_text("t,value\n0,A\n1,B\n2,A\n3,B\n4,B\n5,A\n")
    (tmp_path / "states.txt").write_text("\nA\n\n \t\nB\n\n")
    code, out, err = run(capsys, "fit-dar", str(tmp_path / "s.csv"), "--states", str(tmp_path / "states.txt"))
    assert code == 0 and err == ""
    assert "  6 positions, k=2 categories, 0 missing\n" in out


def test_a_simulated_series_reads_back_through_a_states_file_of_its_labels(tmp_path):
    model = DarModel.from_pi(0.5, [0.2, 0.3, 0.5])
    series = simulate_with_missing(MissingDarModel(model, 0.2), 60, seed=4)
    (tmp_path / "states.txt").write_text("".join(f"{label}\n" for label in model.space.labels))
    space = _read_states(str(tmp_path / "states.txt"))
    assert space == StateSpace.from_k(3) and hash(space) == hash(StateSpace.from_k(3))
    assert parse_series(serialize_series(series), space) == series


@pytest.mark.parametrize("pi", ["nan,0.5", "0.5,nan", "inf,0.5", "0.25,-inf,0.75"])
def test_simulate_refuses_a_non_finite_pi(tmp_path, capsys, pi):
    code, out, err = run(capsys, "simulate", "--alpha", "0.5", "--pi", pi, "--n", "5", "--out", str(tmp_path / "s.csv"))
    assert code == 2 and out == ""
    assert err == f"error: --pi components must be finite, got {pi!r}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["fit-dar", "test", "fit-glm"])
@pytest.mark.parametrize("label", ["NA", "a,b"])
def test_states_file_label_that_cannot_round_trip_exits_2(tmp_path, capsys, command, label):
    (tmp_path / "s.csv").write_text("t,value\n0,low\n1,NA\n2,low\n3,low\n")
    (tmp_path / "states.txt").write_text(f"low\n{label}\n")
    code, out, err = run(capsys, command, str(tmp_path / "s.csv"), "--states", str(tmp_path / "states.txt"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: state label {label!r} would not read back from a series file")


@pytest.fixture
def ab_series(tmp_path, monkeypatch):
    """Writes ``s.csv`` and the states file ``ab.txt`` (A, B) into the working directory, a scratch one."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ab.txt").write_text("A\nB\n")
    return lambda text: (tmp_path / "s.csv").write_text(text)


def test_no_usable_test_series_prints_na_in_fit_dar_and_exits_2_in_test(capsys, ab_series):
    ab_series("t,value\n0,A\n1,NA\n2,B\n3,NA\n4,A\n")
    code, out, err = run(capsys, "fit-dar", "s.csv", "--states", "ab.txt")
    assert (code, err) == (0, "")
    assert out == (
        "series: s.csv\n"
        "  5 positions, k=2 categories, 2 missing\n"
        "  policy longest-segment: unusable (no complete segment of length >= 2)\n"
        "estimates (full series):\n"
        "  pi_hat: (0.667;0.333)  [n_obs=3]\n"
        "  alpha1 (MLE, gap-aware): 0.0000  [not admissible]\n"
        "  alpha2 (least squares): NA (no usable test series)\n"
        "  beta_hat (missing probability): 0.4000   observed fraction: 0.6000\n"
        "independence tests at level 0.05 (on policy series):\n"
        "  chi_square: NA (no usable test series)\n"
        "  runs_count: NA (no usable test series)\n"
        "  longest_run: NA (no usable test series)\n"
    )
    code, out, err = run(capsys, "fit-dar", "s.csv", "--states", "ab.txt", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "(0.667;0.333),0.000000,0,NA,NA,0.400000,0.600000" + ",NA" * 9
    assert run(capsys, "test", "s.csv", "--states", "ab.txt") == (2, "", "error: no complete segment of length >= 2\n")


def test_a_failed_estimate_or_test_is_na_with_its_cause(capsys, ab_series):
    ab_series("t,value\n0,A\n1,A\n2,A\n3,B\n")
    code, out, err = run(capsys, "fit-dar", "s.csv", "--states", "ab.txt")
    assert (code, err) == (0, "")
    assert out == (
        "series: s.csv\n"
        "  4 positions, k=2 categories, 0 missing\n"
        "  series complete, no missing-value policy needed\n"
        "estimates (full series):\n"
        "  pi_hat: (0.750;0.250)  [n_obs=4]\n"
        "  alpha1 (MLE): 0.0000  [not admissible]\n"
        "  alpha2 (least squares): NA (states [2] observed but never as a jump origin)\n"
        "  beta_hat (missing probability): 0.0000   observed fraction: 1.0000\n"
        "independence tests at level 0.05 (on policy series):\n"
        "  chi_square: NA (states [2] missing from the jump table margins)\n"
        "  runs_count: stat=0.4364 p=0.6625 accept\n"
        "    note: pi estimated from the series\n"
        "  longest_run: stat=2.0000 band=[-5.537, 11.779] accept power=0.050\n"
        "    note: pi estimated from the series\n"
    )
    assert run(capsys, "test", "s.csv", "--states", "ab.txt") == (
        0,
        "independence tests at level 0.05:\n"
        "  chi_square: NA (states [2] missing from the jump table margins)\n"
        "  runs_count: stat=0.4364 p=0.6625 accept\n"
        "    note: pi estimated from the series\n"
        "  longest_run: stat=2.0000 band=[-5.537, 11.779] accept\n"
        "    note: pi estimated from the series\n",
        "series complete, no missing-value policy needed\n",
    )


def test_the_runs_tests_read_the_cached_runs_without_a_summary(tmp_path, capsys, monkeypatch, states2):
    path = str(tmp_path / "s.csv")
    assert main(["simulate", "--alpha", "0.5", "--pi", "0.5,0.5", "--n", "100", "--seed", "2", "--out", path]) == 0
    calls = []
    real = independence.runs_summary
    monkeypatch.setattr(independence, "runs_summary", lambda series: calls.append(1) or real(series))
    code, out, _ = run(capsys, "fit-dar", path, "--states", states2)
    assert code == 0 and "  runs_count: stat=" in out and "  longest_run: stat=" in out
    assert calls == []


BOUNDS = ["0", "1", "-1", "1e-300", "0.999999999", "nan", "inf", "-inf", str(2**70), "x", ""]


def usually(good, *odd):
    """Mostly one of ``good``, else one of ``odd``: the values at and past a bound."""
    return sometimes(st.sampled_from(good), st.sampled_from(odd)) if odd else st.sampled_from(good)


def sometimes(usual, rare, every=10):
    """``rare`` about once in ``every`` draws, else ``usual`` (``one_of`` would weigh them equally)."""
    return st.sampled_from(range(every)).flatmap(lambda i: rare if i == 0 else usual)


@st.composite
def csv_texts(draw):
    """Series text that mostly reads: labels and NA, with whitespace, stray commas, ragged rows and any line break."""
    row = st.builds("{},{}".format, usually(["0", "1", "17", " 5 "], "", "x"), usually(["A", "B", "NA", " A\t"], "C", ""))
    odd = st.sampled_from(["", "A", ",", "1,A,B", " , ", "\u00e9,A", "\x00"])
    brk = usually(["\n"], "\r\n", "\r", "\x85", "\u2028", "\x0c")
    header = draw(usually(["t,value"], "", "t", "t,value,x", " t , value "))
    text = "".join(f"{ln}{draw(brk)}" for ln in [header, *draw(st.lists(sometimes(row, odd, every=30), max_size=15))])
    return text.encode() + draw(usually([b""], b"\xff", b"0,A"))


@st.composite
def any_command(draw):
    """A command line of one of the five commands, with option values at and past their bounds."""
    command = draw(st.sampled_from(["simulate", "fit-dar", "test", "fit-glm", "reproduce-tables"]))
    argv = [command]

    def maybe(option, good, *odd):
        if draw(st.booleans()):
            argv.extend([option, draw(usually(good, *odd))])

    if command == "simulate":
        argv += ["--alpha", draw(usually(["0", "0.5"], *BOUNDS))]
        argv += ["--pi", draw(usually(["0.5,0.5", "0.2,0.3,0.5"], "1", "0.5,0.5,0", "nan,1", "0.5,", "0.5,0.6"))]
        argv += ["--n", draw(usually(["2", "30"], "-1", "0", "1", str(10**18), str(2**70), "1.5"))]
        maybe("--beta", ["0", "0.3"], *BOUNDS)
        maybe("--states", ["states.txt"])
        maybe("--out", ["sim.csv"], ".")
    elif command == "reproduce-tables":
        argv += ["--m", draw(usually(["1", "2"], "-1", "0", str(10**20), "x"))]
        maybe("--format", ["csv", "md", "txt"], "json")
        maybe("--out", ["tables"], "s1.csv")
    else:
        argv += draw(usually([["s1.csv"], ["s1.csv", "s2.csv"]], ["absent.csv"]))
        argv += ["--states", "states.txt"]
        if command in ("fit-dar", "test"):
            maybe("--level", ["0.05"], *BOUNDS)
            maybe("--missing-policy", ["drop", "longest-segment"], "none")
        if command == "fit-glm":
            maybe("--lags", ["0,1,2", "0", "2", "1,1"], "3", "", "x")
            maybe("--family", ["categorical", "ordinal", "both"])
            if draw(st.booleans()):
                argv.append("--common-rows")
        if command != "test":
            maybe("--format", ["csv", "txt"] if command == "fit-dar" else ["csv", "md", "txt"], "json")
    if command in ("simulate", "reproduce-tables"):
        maybe("--seed", ["0", str(2**70)], "-1")
    return argv


@given(
    argv=any_command(),
    series=st.lists(csv_texts(), min_size=2, max_size=2),
    states=usually(
        [b"A\nB\n", b"A\nB\nC\n", b"A\n\n B \n"],
        b"A\n", b"A\nA\n", b"A\nNA\n", b"", b"1\n2\n3\n",
        b"AB\xe9\n", BOM + b"A\r\nB\r\n", b"A\nB\nA\n", b" \n\n",  # not UTF-8; a mark and CRLF; duplicates; blank
    ),
)
@example(  # 1 - level/2 rounds to 1: the longest-run test is NA with its cause
    argv=["fit-dar", "s1.csv", "--states", "states.txt", "--level", "1e-300"],
    series=[b"t,value\n0,A\n1,B\n", b""],
    states=b"A\nB\n",
)
@settings(max_examples=150, deadline=None)
def test_every_command_exits_0_or_2_under_generated_input(argv, series, states):
    """A 2 comes with one ``error: `` line and no traceback; argparse's usage lines come before a usage error's."""
    err = io.StringIO()
    usage = False
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in zip(["s1.csv", "s2.csv"], series):
                with open(name, "wb") as f:
                    f.write(text)
            with open("states.txt", "wb") as f:
                f.write(states)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses the command line
                    code, usage = exc.code, True
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 2) and "Traceback" not in err.getvalue(), err.getvalue()
    if code == 2:
        assert [line for line in lines if "error: " in line] == lines[-1:], err.getvalue()
        assert usage or lines[0].startswith("error: ") and len(lines) == 1, err.getvalue()
