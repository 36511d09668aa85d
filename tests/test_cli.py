import numpy as np
import pytest

from darcat.cli import main
from darcat.core import serialize_series
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
    code, _, err = run(capsys, "fit-dar", str(out))
    assert code == 2 and "--states" in err


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
