"""State spaces, categorical series containers and shared counting primitives.

Categories are coded 1..k internally, whatever their text labels are.
Missing observations are coded with the sentinel ``MISSING`` (-1).  A
series is stored once, as the read-only int64 array ``CatSeries.obs``,
and the series operations work on it without a per-observation loop.
Time labels are stored only when they differ from the implicit '0', '1',
..., str(n) (``CatSeries.time_labels`` is ``None`` otherwise), and
:func:`parse_series` / :func:`serialize_series` read and write a series
through whole-text string operations, not a loop over its rows.
All containers are immutable after construction and safe to share across
threads; every operation here is a pure function.  The facts that the
estimators and tests read off a series (its state counts, per-gap pair
table and runs) are cached properties, computed on first read; two
threads reading one at once at most compute it twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, islice

import numpy as np

MISSING = -1

__all__ = [
    "MISSING",
    "DarcatError",
    "UnknownLabel",
    "MalformedRow",
    "TooShort",
    "MissingValuePresent",
    "StateSpace",
    "CatSeries",
    "TransitionCounts",
    "EmpiricalTransitionMatrix",
    "parse_series",
    "serialize_series",
    "path_counts",
    "run_lengths",
    "transition_counts",
    "jump_frequencies",
    "empirical_transition_matrix",
]


class DarcatError(ValueError):
    """Base class for all errors raised by this package."""


class UnknownLabel(DarcatError):
    """A value cell matched no label of the state space."""


class MalformedRow(DarcatError):
    """A CSV row did not have exactly two columns."""


class TooShort(DarcatError):
    """Fewer than two usable data rows / observations."""


class MissingValuePresent(DarcatError):
    """Operation requires a complete series but missing values are present."""


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite category set with text labels.

    Internal codes are exactly 1..k in label order.  ``ordinal`` records
    whether the category order is meaningful (it changes nothing here but
    drives which regression family is appropriate downstream).  Every
    label must read back from a series file as itself, so none may be
    ``NA`` or empty, hold a comma or a line break, or have whitespace
    around it.
    """

    labels: tuple[str, ...]
    ordinal: bool = False

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise DarcatError(f"state space needs at least 2 categories, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise DarcatError("state space labels must be pairwise distinct")
        for label in labels:
            if label in ("", "NA") or label != label.strip() or any(c in label for c in ",\n" + _LINE_BREAKS):
                raise DarcatError(
                    f"state label {label!r} would not read back from a series file: "
                    "a label may not be NA or empty, hold a comma or a line break, or have whitespace around it"
                )

    @property
    def k(self) -> int:
        return len(self.labels)

    @classmethod
    def from_k(cls, k: int, ordinal: bool = False) -> "StateSpace":
        """Numeric state space with labels '1'..'k'."""
        return cls(tuple(str(j) for j in range(1, k + 1)), ordinal=ordinal)

    def code_of(self, label: str) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in state space {list(self.labels)}") from None

    def label_of(self, code: int) -> str:
        if not 1 <= code <= self.k:
            raise DarcatError(f"code {code} outside 1..{self.k}")
        return self.labels[code - 1]


@dataclass(frozen=True, eq=False)
class CatSeries:
    """A time-indexed sequence of category codes, possibly with missing values.

    ``obs``, the one stored form of the series, is a read-only int64 copy
    of the codes given: 1..k or ``MISSING``, n+1 of them for times 0..n.
    ``time_labels``, when present, carries one opaque stamp per index (no
    date parsing is attempted).  It is ``None`` exactly when the stamps
    are the implicit '0', '1', ..., str(n): labels given in that form are
    stored as ``None``, so a series equals itself written and read back.
    Series derived by dropping observations keep the stamps of the
    observations kept, implicit ones included.
    """

    space: StateSpace
    obs: np.ndarray
    time_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        obs = np.array(self.obs, dtype=np.int64)
        obs.setflags(write=False)
        object.__setattr__(self, "obs", obs)
        if len(obs) < 2:
            raise TooShort(f"series needs at least 2 observations, got {len(obs)}")
        k = self.space.k
        bad = np.flatnonzero(((obs < 1) | (obs > k)) & (obs != MISSING))
        if bad.size:
            i = int(bad[0])
            raise DarcatError(f"observation {obs[i]} at index {i} outside {{-1}} U 1..{k}")
        if self.time_labels is not None:
            tl = tuple(map(str, self.time_labels))
            if len(tl) != len(obs):
                raise DarcatError("time_labels length must match obs length")
            object.__setattr__(self, "time_labels", None if _is_default_stamps(tl) else tl)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatSeries):
            return NotImplemented
        same = (self.space, self.time_labels) == (other.space, other.time_labels)
        return same and np.array_equal(self.obs, other.obs)

    def __len__(self) -> int:
        return len(self.obs)

    @property
    def n(self) -> int:
        """Largest time index (observations run 0..n)."""
        return len(self.obs) - 1

    @property
    def has_missing(self) -> bool:
        return self.n_missing > 0

    @property
    def n_missing(self) -> int:
        return len(self) - int(self.state_counts.sum())

    @cached_property
    def state_counts(self) -> np.ndarray:
        """Occurrences of each category 1..k among the observed values, a read-only (k,) int64 array."""
        counts = np.bincount(self.obs + 1, minlength=self.space.k + 2)[2:]  # MISSING counts in bin 0
        counts.setflags(write=False)
        return counts

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Consecutive observed pairs, counted per time gap.

        ``(gaps, table)``, both read-only: the distinct gaps h >= 1 between
        consecutive observed values in ascending order, and an int table of
        shape ``(len(gaps), k, k)`` whose cell ``[g, x-1, y-1]`` counts pairs
        x -> y observed ``gaps[g]`` steps apart.  Under DAR(1) such a pair
        has probability alpha**h * 1{x=y} + (1 - alpha**h) * pi_y, so the
        table is a sufficient statistic for alpha given pi.
        """
        x = self.obs
        at = np.flatnonzero(x != MISSING)
        steps = np.diff(at)
        gaps = np.flatnonzero(np.bincount(steps))
        k = self.space.k
        cells = (np.searchsorted(gaps, steps) * k + x[at[:-1]] - 1) * k + x[at[1:]] - 1
        table = np.bincount(cells, minlength=gaps.size * k * k).reshape(gaps.size, k, k)
        return _read_only(gaps, table)

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`run_lengths` of ``obs``: its maximal runs as read-only arrays (value, start, length)."""
        return _read_only(*run_lengths(self.obs))

    def stamps(self) -> np.ndarray:
        """Every time label as an array of str, the implicit '0'..'n' included."""
        if self.time_labels is None:
            return np.arange(len(self)).astype(str)
        return np.array(self.time_labels, dtype=object)

    def drop_missing(self) -> "CatSeries":
        """Remove missing entries, closing the gaps (changes adjacency)."""
        keep = self.obs != MISSING
        if np.count_nonzero(keep) < 2:
            raise TooShort("fewer than 2 observed values after dropping missing")
        return CatSeries(self.space, self.obs[keep], self.stamps()[keep])

    def longest_complete_segment(self) -> "CatSeries":
        """Longest run of consecutive non-missing observations, ties to the earliest."""
        observed, starts, lengths = run_lengths(self.obs != MISSING)
        lengths = np.where(observed, lengths, 0)
        best = int(np.argmax(lengths))
        if lengths[best] < 2:
            raise TooShort("no complete segment of length >= 2")
        sl = slice(starts[best], starts[best] + lengths[best])
        return CatSeries(self.space, self.obs[sl], self.stamps()[sl])

    def restrict_to_observed(self) -> tuple["CatSeries", tuple[str, ...]]:
        """The series on the sub-space of its observed categories (as is if all are), and the labels dropped."""
        present = np.flatnonzero(self.state_counts) + 1
        if present.size < 2:
            raise DarcatError("only one category observed; independence tests are undefined")
        if present.size == self.space.k:
            return self, ()
        labels = np.array(self.space.labels, dtype=object)
        sub = StateSpace(tuple(labels[present - 1]), ordinal=self.space.ordinal)
        codes = np.searchsorted(present, self.obs) + 1
        codes[self.obs == MISSING] = MISSING
        return CatSeries(sub, codes, self.time_labels), tuple(np.delete(labels, present - 1))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def run_lengths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of equal entries as arrays (value, start, length), in order."""
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], starts, np.diff(starts, append=values.size)


def path_counts(paths: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """State counts and one-step jump tables of complete paths stacked as rows.

    ``paths`` is an ``(m, n+1)`` array of codes 1..k.  Returns the
    ``(m, k)`` count of each state per row and the ``(m, k, k)`` table
    whose cell ``[r, x-1, y-1]`` counts jumps x -> y in row r: per row,
    the gap-1 table of :attr:`CatSeries.pairs`.  Each comes from one bincount
    over cell indices offset by row.
    """
    m = paths.shape[0]
    cells = np.arange(m)[:, None] * k + paths - 1  # (row, state) of every position
    states = np.bincount(cells.ravel(), minlength=m * k).reshape(m, k)
    jumps = np.bincount((cells[:, :-1] * k + paths[:, 1:] - 1).ravel(), minlength=m * k * k)
    return states, jumps.reshape(m, k, k)


_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines breaks a line besides "\n"
_ASCII_SPACES = " \t\x1f"  # what str.strip removes from ASCII text besides line breaks


def parse_series(csv_text: str, space: StateSpace) -> CatSeries:
    """Parse a two-column ``t,value`` CSV into a CatSeries.

    Value cells must be labels of ``space`` or the literal ``NA`` for a
    missing observation.  Rows are kept in file order; blank lines are
    skipped and every cell is stripped of surrounding whitespace.  The
    ``t`` column is kept as the time labels (``None`` when it is the
    implicit '0', '1', ..., see :class:`CatSeries`).

    The whole text is tokenised and checked at once; only a text that
    fails the check is read again row by row, by :func:`_first_error`,
    to name its first bad row.
    """
    cells = _cells(csv_text)
    if cells is not None and len(cells) >= 6:  # a header and at least two data rows
        code_of = dict(zip(space.labels, range(1, space.k + 1)), NA=MISSING)
        try:
            obs = np.fromiter(map(code_of.__getitem__, islice(cells, 3, None, 2)), np.int64, len(cells) // 2 - 1)
        except KeyError:
            pass
        else:
            times = cells[2::2]
            del cells  # frees the value cells before the stamps are checked
            # checked here too, so that implicit stamps are never copied into a tuple
            return CatSeries(space, obs, None if _is_default_stamps(times) else times)
    raise _first_error(csv_text, space)


def _cells(csv_text: str) -> list[str] | None:
    """The stripped cells of the non-blank lines in file order, or None unless each such line has two.

    Lines break where :meth:`str.splitlines` breaks them and cells are
    stripped as :meth:`str.strip` strips them, but without a loop over
    the lines: every line break becomes "\\n" and then so does every
    comma, so that cell j of the split text ends at the j-th of the
    original separators, and the order of those separators alone tells
    which lines hold one cell and which more than two.
    """
    text = csv_text.replace("\r\n", "\n")
    for brk in _LINE_BREAKS:
        if brk in text:
            text = text.replace(brk, "\n")
    if not text.endswith("\n"):
        text += "\n"
    buf = np.frombuffer(text.encode(), np.uint8)
    comma = buf[np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))] == ord(",")
    del buf  # a byte per character, not needed while the cells are made
    if (comma[1:] & comma[:-1]).any():
        return None  # a line with three or more cells
    cells = text.replace(",", "\n").split("\n")
    cells.pop()  # the empty tail after the last line break
    if not text.isascii() or any(c in text for c in _ASCII_SPACES):
        cells = list(map(str.strip, cells))
    whole = np.flatnonzero(~comma & ~np.append(False, comma[:-1])).tolist()  # lines without a comma
    if any(map(cells.__getitem__, whole)):
        return None  # a line with one cell that is not blank
    if whole:
        keep = np.ones(len(cells), bool)
        keep[whole] = False
        cells = list(compress(cells, keep.tolist()))
    return cells


def _first_error(csv_text: str, space: StateSpace) -> DarcatError:
    """The error that reading ``csv_text`` row by row meets first.

    This is the original per-row parser, kept to report errors only: it
    runs after :func:`parse_series` has found the text invalid, so each
    error keeps its type and message, and line numbers count the
    non-blank lines.
    """
    lines = [ln for ln in csv_text.splitlines() if ln.strip() != ""]
    if not lines:
        return TooShort("empty input")
    header = lines[0].split(",")
    if len(header) != 2:
        return MalformedRow(f"expected 2 header columns, got {len(header)}")
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != 2:
            return MalformedRow(f"line {lineno}: expected 2 columns, got {len(cells)}")
        if cells[1] != "NA":
            try:
                space.code_of(cells[1])
            except UnknownLabel as exc:
                return exc
    if len(lines) < 3:
        return TooShort(f"need at least 2 data rows, got {len(lines) - 1}")
    raise AssertionError("parse_series rejected a text that reads row by row without error")


def _default_stamps(n: int) -> str:
    """The implicit time labels of n >= 1 observations, one per line: '0', '1', ..., str(n - 1).

    Built one digit count at a time, without a loop over the numbers:
    the (d+1)-digit numbers 10q + r are the d-digit numbers q, each
    followed by every last digit r.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    rows = np.stack([digit, np.full(10, ord("\n"), np.uint8)], axis=1)  # the numbers 0..9
    blocks = [rows[:n]]
    prefixes = rows[1:, :1]  # the numbers 1..9, without their line break
    d = 1
    while 10**d < n:
        hi = min(10 ** (d + 1), n)
        q = prefixes[: -(-hi // 10) - 10 ** (d - 1)]  # those that start a number below hi
        table = np.empty((len(q), 10, d + 2), np.uint8)
        table[:, :, :d] = q[:, None]
        table[:, :, d] = digit
        table[:, :, d + 1] = ord("\n")
        rows = table.reshape(-1, d + 2)
        blocks.append(rows[: hi - 10**d])
        prefixes = rows[:, : d + 1]
        d += 1
    return np.concatenate(blocks, axis=None)[:-1].tobytes().decode()


def _is_default_stamps(stamps: list[str] | tuple[str, ...]) -> bool:
    """Whether the time labels ``stamps`` (a sequence of str) are '0', '1', ..., in order."""
    n = len(stamps)
    return stamps[0] == "0" and stamps[-1] == str(n - 1) and "\n".join(stamps) == _default_stamps(n)


def serialize_series(series: CatSeries) -> str:
    """Inverse of :func:`parse_series`: ``parse_series(serialize_series(s), s.space) == s``."""
    # code c is written as cells[c]; MISSING (-1) wraps to the last cell
    cells = np.array(["", *(f",{label}\n" for label in series.space.labels), ",NA\n"], dtype=object)
    rows = [None] * (2 * len(series) + 1)
    rows[0] = "t,value\n"
    rows[1::2] = series.time_labels or _default_stamps(len(series)).split("\n")
    rows[2::2] = cells[series.obs].tolist()
    return "".join(rows)


@dataclass(frozen=True)
class TransitionCounts:
    """One-step jump counts N[j][j'] with their margins."""

    matrix: np.ndarray  # (k, k) int, [j-1, j'-1]
    row_sums: np.ndarray  # visits of j as a jump origin
    col_sums: np.ndarray  # visits of j' as a jump target
    n_transitions: int

    def __post_init__(self) -> None:
        _read_only(self.matrix, self.row_sums, self.col_sums)


def transition_counts(series: CatSeries) -> TransitionCounts:
    """Count jumps j -> j' over all adjacent index pairs.

    The series must be complete; totals equal len(series) - 1.
    """
    if series.has_missing:
        raise MissingValuePresent("transition_counts requires a complete series")
    mat = series.pairs[1][0]
    return TransitionCounts(
        matrix=mat,
        row_sums=mat.sum(axis=1),
        col_sums=mat.sum(axis=0),
        n_transitions=int(mat.sum()),
    )


@dataclass(frozen=True)
class EmpiricalTransitionMatrix:
    """Row-normalised jump frequencies with a per-row validity flag.

    Rows of states never seen as a jump origin are NaN and flagged
    undefined so downstream tests can refuse cleanly instead of working
    with silently zero-filled probabilities.
    """

    probs: np.ndarray  # (k, k) float, NaN on undefined rows
    defined: np.ndarray  # (k,) bool
    counts: TransitionCounts = field(repr=False)

    def __post_init__(self) -> None:
        _read_only(self.probs, self.defined)


def jump_frequencies(jumps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalised jump counts and the per-row validity flag.

    ``jumps`` is a ``(..., k, k)`` count table, one matrix per leading
    index; rows with no jump are NaN and flagged undefined.
    """
    rows = jumps.sum(axis=-1).astype(float)
    defined = rows > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = jumps / rows[..., None]
    probs[~defined] = np.nan
    return probs, defined


def empirical_transition_matrix(series: CatSeries) -> EmpiricalTransitionMatrix:
    """Estimate the transition matrix by row-normalised jump counts."""
    counts = transition_counts(series)
    probs, defined = jump_frequencies(counts.matrix)
    return EmpiricalTransitionMatrix(probs=probs, defined=defined, counts=counts)
