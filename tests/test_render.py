import numpy as np
import pytest

from darcat import render
from darcat.glm import AicRow, AicTable, GlmFit
from darcat.render import table

HEADER = ("a", "bb")
ROWS = [(1, "x"), (22, "yy", " <- note")]


def test_csv_joins_cells_with_commas():
    assert table("csv", HEADER, [("1", "x"), ("22", "")]) == "a,bb\n1,x\n22,\n"


def test_md_has_one_rule_after_the_header():
    assert table("md", HEADER, [(1, "x")]) == "| a | bb |\n|---|---|\n| 1 | x |\n"


def test_txt_right_aligns_and_appends_trailing_note():
    assert table("txt", HEADER, ROWS, (3, 4)) == "  a   bb\n  1    x\n 22   yy <- note\n"


def test_unknown_format_is_an_error():
    with pytest.raises(ValueError, match="json"):
        table("json", HEADER, ROWS)


@pytest.mark.parametrize(
    "value, decimals, expected",
    [
        (None, 6, "NA"),
        (True, 6, "1"),
        (np.bool_(False), 3, "0"),
        (44, 6, "44"),
        (np.int64(7), 6, "7"),
        (-12.25, 6, "-12.250000"),
        (np.float64(0.56317), 3, "0.563"),
    ],
)
def test_cell_writes_na_flags_ints_and_floats(value, decimals, expected):
    assert render.cell(value, decimals) == expected


def fitted(lag, log_pl, n_params, n_used):
    return GlmFit(
        family="MultinomialLogit", lag=lag, coefficients=np.zeros((1, n_params)), log_pl=log_pl,
        n_params=n_params, n_used=n_used, categories=(1, 2), column_names=("const",),
    )


# lag 1's design could not be built, so its n is unknown
UNBUILT = AicTable("categorical", (
    AicRow(0, 30, fit=fitted(0, -20.5, 1, 30)),
    AicRow(1, None, error="no rows in the common usable set"),
    AicRow(2, 28, fit=fitted(2, -12.25, 5, 28)),
), best_lag=2)
NOTHING_FITTED = AicTable("ordinal", (
    AicRow(0, None, error="no usable rows"),
    AicRow(1, 12, error="separation"),
), best_lag=None)


@pytest.mark.parametrize(
    "aic, fmt, expected",
    [
        (UNBUILT, "csv", "# family: categorical\nlag,n_params,log_pl,aic,n_used,best\n"
         "0,1,-20.500000,43.000000,30,\n1,NA,NA,NA,NA,\n2,5,-12.250000,34.500000,28,*\n"),
        (UNBUILT, "md", "**family: categorical**\n\n| lag | params | logPL | AIC | n |\n|---|---|---|---|---|\n"
         "| 0 | 1 | -20.5000 | 43.0000 | 30 |\n| 1 | NA | NA | NA | - |\n| 2 | 5 | -12.2500 | **34.5000** | 28 |\n"),
        (UNBUILT, "txt", "family: categorical\n lag  params        logPL          AIC      n\n"
         "   0       1     -20.5000      43.0000     30\n"
         "   1      NA           NA           NA      -   (no rows in the common usable set)\n"
         "   2       5     -12.2500      34.5000     28 <- min AIC\n"),
        (NOTHING_FITTED, "csv", "# family: ordinal\nlag,n_params,log_pl,aic,n_used,best\n0,NA,NA,NA,NA,\n1,NA,NA,NA,12,\n"),
        (NOTHING_FITTED, "md", "**family: ordinal**\n\n| lag | params | logPL | AIC | n |\n|---|---|---|---|---|\n"
         "| 0 | NA | NA | NA | - |\n| 1 | NA | NA | NA | 12 |\n"),
        (NOTHING_FITTED, "txt", "family: ordinal\n lag  params        logPL          AIC      n\n"
         "   0      NA           NA           NA      -   (no usable rows)\n"
         "   1      NA           NA           NA     12   (separation)\n"),
    ],
    ids=["unbuilt_csv", "unbuilt_md", "unbuilt_txt", "nothing_fitted_csv", "nothing_fitted_md", "nothing_fitted_txt"],
)
def test_aic_table_writes_rows_no_golden_case_prints(aic, fmt, expected):
    assert render.aic_table(aic, fmt) == expected
