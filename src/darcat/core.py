"""State spaces, categorical series containers and shared counting primitives.

Categories are coded 1..k internally, whatever their text labels are.
Missing observations are coded with the sentinel ``MISSING`` (-1).  A
series is stored once, as the read-only int64 array ``CatSeries.obs``,
and the series operations work on it without a per-observation loop.
Time labels are checked once, where they enter; derived series index
their one stored array, and text is made of them only when they are read
or written.  :func:`serialize_series` writes a series as one UTF-8 byte
buffer, with no Python object per row or cell (``simulate --out`` writes
that buffer as it is), and :func:`parse_series` reads the text it writes
for the stamps 0, 1, ..., its ``t,value`` header included, the same way,
taking bytes as they are; any other text, such as a hand-kept record or
one with a renamed header, is read row by row.  Both spell the stamps 0,
1, ... as 8-byte words: the reader compares each row's start with its
word by one unaligned load, and the writer stores each row's stamp and
value cell as integers.  All containers are immutable after
construction and safe to share across threads; every operation here is a
pure function.  The facts that the estimators, tests and fits read off a series (its state counts,
per-gap pair table, runs and window tables) are cached, computed on
first read; two threads reading one at once at most compute it twice.
The pair table is read off the runs, so one scan finds both.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

MISSING = -1
_HEADER = b"t,value\n"  # the header line the writer writes and the byte reader reads

__all__ = [
    "MISSING",
    "DarcatError",
    "UnknownLabel",
    "MalformedRow",
    "TooShort",
    "MissingValuePresent",
    "NotUtf8",
    "StateSpace",
    "CatSeries",
    "parse_series",
    "utf8_text",
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


class NotUtf8(DarcatError):
    """Bytes read as text were not UTF-8."""


def utf8_text(data: bytes) -> str:
    """``data`` decoded; :class:`NotUtf8` names the reason and the offset of the first byte that is not UTF-8."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite category set: a state space is its text labels, in order.

    Two are equal exactly when their labels are.  Internal codes are
    exactly 1..k in label order, the category order the proportional-odds
    family uses.  Every label must read back from a series file as
    itself, so none may be ``NA`` or empty, hold a comma or a line break,
    or have whitespace around it.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise DarcatError(f"state space needs at least 2 categories, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise DarcatError("state space labels must be pairwise distinct")
        for label in labels:
            if label in ("", "NA") or _unreadable(label):
                raise DarcatError(
                    f"state label {label!r} would not read back from a series file: "
                    "a label may not be NA or empty, hold a comma or a line break, or have whitespace around it"
                )

    @property
    def k(self) -> int:
        return len(self.labels)

    @classmethod
    def from_k(cls, k: int) -> "StateSpace":
        """Numeric state space with labels '1'..'k'."""
        return cls(tuple(str(j) for j in range(1, k + 1)))

    def code_of(self, label: str) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in state space {list(self.labels)}") from None

    def label_of(self, code: int) -> str:
        if not 1 <= code <= self.k:
            raise DarcatError(f"code {code} outside 1..{self.k}")
        return self.labels[code - 1]


class _TimeLabels:
    """``CatSeries.time_labels``: ``None`` read on the class, the constructor's default; a series' stamps read on it.

    ``dataclasses.replace`` reads it on the series and so passes the stamps to the constructor again.
    """

    def __get__(self, series: CatSeries | None, owner: type | None = None) -> tuple[str, ...] | None:
        return None if series is None or series._stamps is None else tuple(series.stamps().tolist())


@dataclass(frozen=True, eq=False)
class CatSeries:
    """A time-indexed sequence of category codes, possibly with missing values.

    ``obs``, the one stored form of the series, is a read-only int64 copy
    of the codes given: 1..k or ``MISSING``, n+1 of them for times 0..n.
    The codes must be a 1-D sequence of integers; floats, strings and
    nested sequences are refused, not cast.  The callers in this package
    that have just made a fresh int64 array of codes (:func:`parse_series`
    reading bytes, the simulators and the derived series) hand it over with
    ``_owned=True``, and the series keeps that array itself, made read-only,
    with no copy; it is checked as any other.
    ``time_labels``, when given, carries one opaque stamp per index (no
    date parsing is attempted), checked here to read back from a series
    file.  Read, it is a tuple of str made on each read, or ``None``
    exactly when the stamps are the implicit '0', '1', ..., str(n), so a
    series equals itself written and read back.  The stamps are stored
    once: ``_stamps`` is ``None`` for the implicit ones, else a read-only
    array of the labels or of the time indices kept from implicit ones.
    Series derived by dropping observations, and :func:`parse_series`,
    pass it in unchecked.
    """

    space: StateSpace
    obs: np.ndarray
    time_labels: InitVar[Sequence[str] | None] = _TimeLabels()
    _stamps: np.ndarray | None = field(default=None, repr=False, kw_only=True)
    _owned: InitVar[bool] = field(default=False, kw_only=True)  # not stored, so dataclasses.replace copies again

    def __post_init__(self, time_labels: Sequence[str] | None, _owned: bool) -> None:
        try:
            obs = self.obs if _owned else np.array(self.obs)
        except ValueError:  # numpy refuses a ragged nested sequence
            raise DarcatError("codes must be a 1-D sequence, got a ragged nested sequence") from None
        if obs.ndim != 1:
            raise DarcatError(f"codes must be a 1-D sequence, got shape {obs.shape}")
        if len(obs) < 2:  # before the dtype, as an empty sequence is float
            raise TooShort(f"series needs at least 2 observations, got {len(obs)}")
        if obs.dtype.kind not in "iu":  # signed or unsigned integers
            raise DarcatError(f"codes must be integers, got {obs.dtype} values")
        obs = obs.astype(np.int64, copy=False)
        obs.setflags(write=False)
        object.__setattr__(self, "obs", obs)
        k = self.space.k
        # the bounds first, so that no huge code sizes the bincount under state_counts, whose bin 1 counts the codes 0
        if obs.min() < MISSING or obs.max() > k or self.state_counts.base[1]:
            bad = np.flatnonzero(((obs < 1) | (obs > k)) & (obs != MISSING))
            i = int(bad[0])
            raise DarcatError(f"observation {obs[i]} at index {i} outside {{-1}} U 1..{k}")
        if time_labels is not None:
            if isinstance(time_labels, np.ndarray):  # str() of each numpy scalar is over twice as slow
                time_labels = time_labels.tolist()
            tl = tuple(map(str, time_labels))
            if len(tl) != len(obs):
                raise DarcatError("time_labels length must match obs length")
            _check_stamps(tl)
            object.__setattr__(self, "_stamps", _unless_implicit(np.array(tl, dtype=object)))
        if self._stamps is not None:
            self._stamps.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatSeries):
            return NotImplemented
        same = self.space == other.space and np.array_equal(self.obs, other.obs)
        mine, theirs = self._stamps, other._stamps
        if mine is None or theirs is None:  # stored stamps are never the implicit ones
            return same and mine is theirs
        if mine.dtype == theirs.dtype:
            return same and np.array_equal(mine, theirs)
        return same and self.time_labels == other.time_labels  # time indices against labels

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
        """Occurrences of each category 1..k among the observed values, a read-only (k,) int64 array.

        Counted as the codes are checked: it is bins 2.. of the bincount of
        the codes plus 1, in which MISSING counts in bin 0 and a code 0,
        which the check refuses, in bin 1.
        """
        counts = np.bincount(self.obs + 1, minlength=self.space.k + 2)
        counts.setflags(write=False)
        return counts[2:]

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Consecutive observed pairs, counted per time gap.

        ``(gaps, table)``, both read-only: the distinct gaps h >= 1 between
        consecutive observed values in ascending order, and an int table of
        shape ``(len(gaps), k, k)`` whose cell ``[g, x-1, y-1]`` counts pairs
        x -> y observed ``gaps[g]`` steps apart.  Under DAR(1) such a pair
        has probability alpha**h * 1{x=y} + (1 - alpha**h) * pi_y, so the
        table is a sufficient statistic for alpha given pi.

        Read off the observed :attr:`runs`: a run of length L adds L - 1
        repeats at gap 1, and each run followed by another observed one adds
        the pair between their values, at the gap from the first's last
        time to the second's first (1 when no missing run lies between).
        """
        values, starts, _ = self.runs
        seen = (values != MISSING).nonzero()[0]
        x = values[seen]
        # the step from each observed run's last time (the one before the next run starts) to the next observed run
        steps = starts[seen[1:]] - starts[1:][seen[:-1]] + 1
        k = self.space.k
        repeats = self.state_counts - np.bincount(x, minlength=k + 1)[1:]  # L - 1 for each run of length L
        at_gap = np.bincount(steps, minlength=2)
        at_gap[1] += np.count_nonzero(repeats)
        gaps = at_gap.nonzero()[0]
        cells = x[:-1] * k + x[1:] - (k + 1)  # (x - 1) * k + y - 1
        if len(gaps) > 1:
            cells += gaps.searchsorted(steps) * (k * k)
        table = np.bincount(cells, minlength=gaps.size * k * k)
        if at_gap[1]:  # then gaps[0] is 1
            table[: k * k : k + 1] += repeats
        table = table.reshape(gaps.size, k, k)
        return _read_only(gaps, table)

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`run_lengths` of ``obs``: its maximal runs as read-only arrays (value, start, length)."""
        return _read_only(*run_lengths(self.obs))

    def windows(self, lag: int) -> np.ndarray:
        """Fully observed windows (x_{t-lag}, ..., x_t), counted.

        A read-only int table of shape ``(k,) * (lag + 1)`` whose cell
        ``[a_lag - 1, ..., a_0 - 1]`` counts the times t at which
        x_{t-d} = a_d for d = lag, ..., 0, oldest first, no value missing;
        all zero when the series is not longer than ``lag``.  Summing it
        over its oldest axes gives the lower lags' counts on these same
        times.  Computed once per lag, by one bincount.
        """
        tables = self._windows
        if lag not in tables:
            if lag < 0:
                raise DarcatError(f"lag must be >= 0, got {lag}")
            k, x = self.space.k, self.obs
            n = max(len(x) - lag, 0)
            keys = x[:n] - 1
            observed = x[:n] != MISSING
            for d in range(1, lag + 1):  # oldest first, so the response is the last digit
                v = x[d : d + n]
                keys *= k
                keys += v - 1
                observed &= v != MISSING
            table = np.bincount(keys[observed], minlength=k ** (lag + 1)).reshape((k,) * (lag + 1))
            table.setflags(write=False)
            tables[lag] = table
        return tables[lag]

    @cached_property
    def _windows(self) -> dict[int, np.ndarray]:
        """:meth:`windows`' tables by lag."""
        return {}

    def stamps(self) -> np.ndarray:
        """Every time label as an array of str, the implicit '0'..'n' included; stored labels come read-only."""
        if self._stamps is None:
            return np.arange(len(self)).astype(str)
        return self._stamps if self._stamps.dtype == object else self._stamps.astype(str)

    def drop_missing(self) -> "CatSeries":
        """Remove missing entries, closing the gaps (changes adjacency)."""
        kept = np.flatnonzero(self.obs != MISSING)
        if kept.size < 2:
            raise TooShort("fewer than 2 observed values after dropping missing")
        return self._at(kept)

    def longest_complete_segment(self) -> "CatSeries":
        """Longest run of consecutive non-missing observations, ties to the earliest."""
        observed, starts, lengths = run_lengths(self.obs != MISSING)
        lengths = np.where(observed, lengths, 0)
        best = int(np.argmax(lengths))
        if lengths[best] < 2:
            raise TooShort("no complete segment of length >= 2")
        return self._at(np.arange(starts[best], starts[best] + lengths[best]))

    def _at(self, kept: np.ndarray) -> "CatSeries":
        """The observations at the rising time indices ``kept``, with their stamps, unchecked."""
        stamps = kept if self._stamps is None else self._stamps[kept]
        return CatSeries(self.space, self.obs[kept], _stamps=_unless_implicit(stamps), _owned=True)

    def restrict_to_observed(self) -> tuple["CatSeries", tuple[str, ...]]:
        """The series on the sub-space of its observed categories (as is if all are), and the labels dropped."""
        present = np.flatnonzero(self.state_counts) + 1
        if present.size < 2:
            raise DarcatError("only one category observed; independence tests are undefined")
        if present.size == self.space.k:
            return self, ()
        labels = np.array(self.space.labels, dtype=object)
        sub = StateSpace(tuple(labels[present - 1]))
        codes = np.searchsorted(present, self.obs) + 1
        codes[self.obs == MISSING] = MISSING
        return CatSeries(sub, codes, _stamps=self._stamps, _owned=True), tuple(np.delete(labels, present - 1))


def _unless_implicit(stamps: np.ndarray) -> np.ndarray | None:
    """``stamps`` (rising time indices or an object array of labels), or ``None`` if they count 0, 1, ..., len - 1."""
    n = len(stamps)
    if stamps.dtype != object:  # rising indices count from 0 exactly when the last is n - 1
        return None if stamps[-1] == n - 1 else stamps
    # the labels are compared in full only if the first and last match
    implicit = stamps[0] == "0" and stamps[-1] == str(n - 1) and stamps.tolist() == list(map(str, range(n)))
    return None if implicit else stamps


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def run_lengths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of equal entries as arrays (value, start, length), in order."""
    new_run = np.empty(values.size, bool)
    new_run[0] = True
    np.not_equal(values[1:], values[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = values.size - starts[-1]
    return values[starts], starts, lengths


def _run_counts(shape: tuple[int, int], starts: np.ndarray, codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """State counts and one-step jump tables of the rows of an ``(m, width)`` array of codes 1..k, read off its runs.

    Run i starts at flat position ``starts[i]`` of the rows laid end to
    end (rising, with every row's position 0 among them) and holds code
    ``codes[i]``; two runs in a row may hold the same code.  A run of
    length L adds L to its state's count and L - 1 repeats to its row's
    jump table, and a run followed by another in its row adds the jump
    between their codes.  Both arrays are overwritten: ``starts`` becomes
    each run's jump-table cell and ``codes`` its code - 1.
    """
    m, width = shape
    lengths = np.empty(starts.size)  # float, as bincount weighs in float
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1:] = m * width - starts[-1:]
    heads = np.searchsorted(starts, np.arange(1, m) * width)  # the first run of every row but the first
    codes -= 1
    cells = starts
    cells //= width
    cells *= k
    cells += codes  # (row, state) of every run
    states = np.bincount(cells, weights=lengths, minlength=m * k).astype(np.intp).reshape(m, k)
    repeats = states - np.bincount(cells, minlength=m * k).reshape(m, k)
    cells *= k
    cells[:-1] += codes[1:]  # the jump from each run into the next, counted back out where the next starts a row
    jumps = np.bincount(cells[:-1], minlength=m * k * k)
    np.subtract.at(jumps, cells[heads - 1], 1)
    jumps = jumps.reshape(m, k * k)
    jumps[:, :: k + 1] += repeats
    return states, jumps.reshape(m, k, k)


def path_counts(paths: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """State counts and one-step jump tables of complete paths stacked as rows.

    ``paths`` is an ``(m, n+1)`` array of codes 1..k.  Returns the
    ``(m, k)`` count of each state per row and the ``(m, k, k)`` table
    whose cell ``[r, x-1, y-1]`` counts jumps x -> y in row r: per row,
    the gap-1 table of :attr:`CatSeries.pairs`.  Both are counted from the
    rows' maximal runs by :func:`_run_counts`.
    """
    new_run = np.empty(paths.shape, dtype=bool)  # a row's first position or a change of value
    new_run[:, 0] = True
    np.not_equal(paths[:, 1:], paths[:, :-1], out=new_run[:, 1:])
    starts = np.flatnonzero(new_run)
    return _run_counts(paths.shape, starts, paths.ravel()[starts], k)


_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines breaks a line besides "\n"
# what str.strip removes besides "\n" and _LINE_BREAKS
_SPACES = " \t\x1f\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000"


def _unreadable(cell: str) -> bool:
    """Whether ``cell`` would not read back from a series file as itself (NA and the empty cell aside)."""
    return cell != cell.strip() or any(c in cell for c in ",\n" + _LINE_BREAKS)


def _check_stamps(stamps: tuple[str, ...]) -> None:
    """Refuse time labels that would not read back, from a few scans of their joined text."""
    text = f",{','.join(stamps)},"  # every stamp between two commas
    if (
        text.count(",") != len(stamps) + 1
        or any(c in text for c in "\n" + _LINE_BREAKS)
        or any(f",{c}" in text or f"{c}," in text for c in _SPACES if c in text)
    ):
        stamp = next(filter(_unreadable, stamps))
        raise DarcatError(
            f"time label {stamp!r} would not read back from a series file: "
            "a time label may not hold a comma or a line break, or have whitespace around it"
        )


def parse_series(csv_text: str | bytes, space: StateSpace) -> CatSeries:
    """Parse a two-column ``t,value`` CSV, given as str or as UTF-8 bytes, into a CatSeries.

    Value cells must be labels of ``space`` or the literal ``NA`` for a
    missing observation.  Rows are kept in file order; blank lines are
    skipped and every cell is stripped of surrounding whitespace.  The
    ``t`` column is kept as the time labels (``None`` when it is the
    implicit '0', '1', ..., see :class:`CatSeries`).

    The text that :func:`serialize_series` writes for the stamps 0..n,
    which ``simulate`` writes too, is read as one UTF-8 byte buffer (bytes
    as they are, a str encoded once), with no Python object per row or
    cell.  That text starts with the header line ``t,value`` and ends in
    "\n", and every other line is ``i,cell`` with i counting from 0 and
    the cell a label or NA.  One scan finds the line breaks, whose offsets
    become the rows' starts in place; one unaligned 8-byte load per row
    compares each row's start with its number's digits and a comma, and
    :func:`_codes` walks each value cell's bytes through a byte trie of
    the labels and NA.  The series keeps the codes it made, with no copy.
    Labels hold no comma, line break or surrounding whitespace, so such a
    text reads as it does row by row.
    Any other text, hand-made with another header, explicit stamps,
    spaces, CRLF or blank lines, is read row by row by :func:`_read_rows`,
    which also names the first bad row.  Bytes are then decoded once:
    :class:`NotUtf8` names the first bad byte's offset, or a str's first
    lone surrogate.
    """
    if isinstance(csv_text, bytes):
        data = csv_text
    else:
        try:
            data = csv_text.encode()
        except UnicodeEncodeError as exc:
            raise NotUtf8(f"not UTF-8 text ({exc.reason} at character {exc.start})") from None
    if data.startswith(_HEADER) and data.endswith(b"\n"):
        buf = np.frombuffer(data, np.uint8)
        starts = np.flatnonzero(buf == ord("\n"))
        starts += 1
        starts = starts[:-1]  # where each line after the first begins
        if len(starts) >= 2:
            cells = _after_default_stamps(buf, starts)
            if cells is not None:
                obs = _codes(buf, cells, space)
                if obs.all():  # every value cell is a label or NA
                    return CatSeries(space, obs, _owned=True)
    return _read_rows(utf8_text(data) if isinstance(csv_text, bytes) else csv_text, space)


def _read_rows(text: str, space: StateSpace) -> CatSeries:
    """The series in ``text`` read row by row, or the first error met, as :func:`parse_series` reads any text it does not read as bytes.

    Lines are split as by str.splitlines, and those blank after str.strip
    are skipped, so line numbers count the non-blank lines.  The header's
    cells are only counted; every other cell is stripped.
    """
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise TooShort("empty input")
    header = lines[0].split(",")
    if len(header) != 2:
        raise MalformedRow(f"expected 2 header columns, got {len(header)}")
    code_of = dict(zip(space.labels, range(1, space.k + 1)), NA=MISSING)
    obs, stamps = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != 2:
            raise MalformedRow(f"line {lineno}: expected 2 columns, got {len(cells)}")
        value = cells[1].strip()
        obs.append(code_of.get(value) or space.code_of(value))  # no code is 0; code_of raises UnknownLabel
        stamps.append(cells[0].strip())
    if len(obs) < 2:
        raise TooShort(f"need at least 2 data rows, got {len(obs)}")
    return CatSeries(space, obs, _stamps=_unless_implicit(np.array(stamps, dtype=object)))


def _codes(buf: np.ndarray, starts: np.ndarray, space: StateSpace) -> np.ndarray:
    """The code of each value cell of ``buf`` at ``starts``: 1..k for a label, ``MISSING`` for NA, 0 for anything else.

    A value cell ends at a line break, which no label holds, so it is the
    label exactly when the bytes from its start are the label's and "\n".
    All cells walk the byte trie of :func:`_trie` together, one byte
    column at a time: each column is one take from ``buf`` and one from
    the trie's steps.  A read past the end of ``buf`` is clipped to its
    last byte, and so lies past a cell's line break or in a cell no label
    matches.  The codes are written over the walk's own node array.
    """
    steps, codes, depth = _trie(space)
    if len(buf) < depth:  # no column may take from an empty buf[j:]; copies of the last byte read as a clipped read
        buf = np.concatenate((buf, np.full(depth, buf[-1])))
    byte = np.empty(len(starts), np.uint8)
    node = np.full(len(starts), 256, np.intp)  # every cell starts at the root
    at = np.empty_like(node)
    for j in range(depth):
        buf[j:].take(starts, out=byte, mode="clip")
        np.add(node, byte, out=at)
        steps.take(at, out=node, mode="clip")  # every index is in range; "clip" writes out with no buffer
    np.right_shift(node, 8, out=at)
    return codes.take(at, out=node, mode="clip")


@lru_cache(maxsize=64)
def _trie(space: StateSpace) -> tuple[np.ndarray, np.ndarray, int]:
    """The byte trie that :func:`_codes` walks on ``space``'s value cells: ``(steps, codes, depth)``.

    Its nodes are the prefixes of each label + "\n" and of "NA\n".  Node 0
    is dead and node 1, the empty prefix, is the root; a node is held as
    its number times 256, so that adding a byte gives the index of its
    step.  ``steps`` is the flat (nodes, 256) table of each node's next
    node on each byte, intp and so wide enough for any number of nodes.  A
    missing step leads to the dead node.  A node ending in "\n" is a whole
    cell: it accepts, and every step from it leads back to itself, so no
    byte read past the cell moves it.  ``codes`` holds, by node number, the
    code of the cell a node accepts, and 0 for any other node.  ``depth``
    is the longest cell's length in bytes.  One trie is built per state
    space.
    """
    cells = [*(f"{label}\n".encode() for label in space.labels), b"NA\n"]
    node_of = {b"": 1}
    for cell in cells:
        for j in range(1, len(cell) + 1):
            node_of.setdefault(cell[:j], len(node_of) + 1)
    steps = np.zeros((len(node_of) + 1, 256), np.intp)
    for prefix, node in node_of.items():
        if prefix:
            steps[node_of[prefix[:-1]], prefix[-1]] = node * 256
    codes = np.zeros(len(steps), np.intp)
    for code, cell in zip([*range(1, space.k + 1), MISSING], cells):
        node = node_of[cell]
        codes[node] = code
        steps[node] = node * 256
    return (*_read_only(steps.ravel(), codes), max(map(len, cells)))


def _after_default_stamps(buf: np.ndarray, starts: np.ndarray) -> np.ndarray | None:
    """Where the value cell of each row of ``buf`` at ``starts`` starts if the rows begin '0,', '1,', ...; else ``None``.

    Each block of :func:`_stamp_words` is compared with the rows' starts by
    :func:`_begins_with`; a row that matches has its comma d bytes after
    its start.  Its value cell holds no comma either when it is a label or
    NA, so the data rows then hold one comma each, and with the header's
    one, the text holds one per line.  ``starts`` is moved in place to the
    cells' starts and returned, or left partly moved when ``None`` is.
    """
    reach = 8 * (len(str(len(starts) - 1)) // 8 + 1)  # the bytes the last row's loads read
    if len(buf) - starts[-1] < reach:  # a copy, only where the last rows are short
        buf = np.concatenate((buf, np.zeros(reach, np.uint8)))
    for d, first, words in _stamp_words(len(starts)):
        at = starts[first : first + len(words)]
        if not _begins_with(buf, at, words, d + 1):
            return None
        at += d + 1
    return starts


def _begins_with(buf: np.ndarray, at: np.ndarray, words: np.ndarray, size: int) -> bool:
    """Whether the ``size`` bytes of ``buf`` from each offset of ``at`` are those of its row of ``words``.

    ``words`` holds each row's bytes as little-endian 8-byte words, as
    :func:`_stamp_words` does, and ``buf`` holds 8 bytes past each offset
    for each of them.  Each word is compared with one unaligned 8-byte load
    per row, the bytes past ``size`` masked off.
    """
    loads = _words_view(buf, len(buf) - 7)
    for j in range(words.shape[1]):
        loaded = loads[at + 8 * j if j else at]
        if size - 8 * j < 8:
            loaded &= np.uint64((1 << 8 * (size - 8 * j)) - 1)
        if not (loaded == words[:, j]).all():
            return False
    return True


def _words_view(buf: np.ndarray | bytearray, count: int, size: int = 8, offset: int = 0, stride: int = 1) -> np.ndarray:
    """A view of ``count`` little-endian ``size``-byte unsigned ints in ``buf`` from ``offset`` on, ``stride`` bytes apart.

    The integers need not be aligned, and with a stride below ``size`` they overlap.
    """
    return np.ndarray((count,), f"<u{size}", buffer=buf, offset=offset, strides=(stride,))


def _stamp_words(n: int):
    """The numbers 0, 1, ..., n - 1 in decimal, each followed by a comma, one digit count at a time.

    Yields ``(d, first, words)`` for d = 1, 2, ...: ``words`` is a
    (rows, d // 8 + 1) uint64 array whose row i holds the text of the
    d-digit number ``first + i`` and its comma as little-endian 8-byte
    words: byte j of the text is byte j % 8 of word j // 8, and the bytes
    after the comma are zero.  Each block is built without a loop over the
    numbers: the (d+1)-digit numbers 10q + r are the d-digit numbers q,
    each with the comma's byte made the last digit r and a comma after it.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    words = (digit | np.uint64(ord(",") << 8))[:, None]  # '0,' .. '9,'
    yield 1, 0, words[:n]
    d = 1
    while 10**d < n:
        hi = min(10 ** (d + 1), n)
        skip = int(d == 1)  # the 1-digit numbers start at 0, which starts no number
        q = words[skip : skip + -(-hi // 10) - 10 ** (d - 1)]  # those that start a number below hi
        table = np.zeros((len(q), 10, (d + 1) // 8 + 1), np.uint64)
        table[:, :, : q.shape[1]] = q[:, None, :]
        table[:, :, d // 8] ^= (digit ^ np.uint64(ord(","))) << np.uint64(8 * (d % 8))
        table[:, :, (d + 1) // 8] |= np.uint64(ord(",") << 8 * ((d + 1) % 8))
        words = table.reshape(-1, table.shape[2])
        yield d + 1, 10**d, words[: hi - 10**d]
        d += 1


def serialize_series(series: CatSeries) -> str:
    """Inverse of :func:`parse_series`: ``parse_series(serialize_series(s), s.space) == s``.

    The text is the UTF-8 buffer that :func:`_series_bytes` writes, decoded.
    """
    return _series_bytes(series).decode()


def _series_bytes(series: CatSeries) -> bytes | bytearray:
    """The text of :func:`serialize_series` as UTF-8 bytes, which ``simulate --out`` writes to its file as they are.

    Both branches write the header ``t,value`` first, the one header that
    :func:`parse_series` reads as bytes.  Stamps that are time indices,
    the implicit ones or those a derived series keeps, are written into
    one byte buffer, one digit count at a time, where the rows of a block are equally long.  Each row's value
    cell (its label and line break) goes in first, by one 1-, 2-, 4- or
    8-byte integer store (one per 8 bytes of a longer cell) into a strided
    view; a store may run on into the next row's stamp.  The stamp and its
    comma, from :func:`_stamp_words`, go in after and so overwrite that.
    When the written cells differ in width, each is padded to the widest
    with a byte that no cell and no stamp holds, and one ``bytes.translate``
    drops the padding.
    """
    # code c is written as cells[c]; MISSING (-1) wraps to the last cell
    stamps = series._stamps
    if stamps is not None and stamps.dtype == object:
        cells = np.array(["", *(f",{label}\n" for label in series.space.labels), ",NA\n"], dtype=object)
        rows = [None] * (2 * len(series) + 1)
        rows[0] = _HEADER.decode()
        rows[1::2] = stamps.tolist()
        rows[2::2] = cells[series.obs].tolist()
        return "".join(rows).encode()
    cells = [b"", *(f"{label}\n".encode() for label in series.space.labels), b"NA\n"]
    written = [cell for cell, used in zip(cells, [False, *(series.state_counts > 0), series.has_missing]) if used]
    width = max(map(len, written))
    pad = b""
    if any(len(cell) != width for cell in written):
        taken = set(b"".join(written) + _HEADER + b"0123456789")  # every byte the text holds
        pad = bytes([min(set(range(256)) - taken)])  # UTF-8 never holds some bytes, so one is free
    span = -(-width // 8) * 8
    table = np.frombuffer(b"".join(cell[:span].ljust(span, pad or b"\0") for cell in cells), "<u8").reshape(len(cells), -1)
    last = len(series) - 1 if stamps is None else int(stamps[-1])
    edges = [0, *(10**d for d in range(1, len(str(last)) + 1))]
    bounds = np.minimum(edges, len(series)) if stamps is None else np.searchsorted(stamps, edges)
    size = len(_HEADER) + int(np.diff(bounds) @ (np.arange(2, len(edges) + 1) + width))
    out = bytearray(size + 8)  # the last row's cell store may run on 7 bytes past the text
    at = len(_HEADER)
    out[:at] = _HEADER
    for (d, first, words), lo, hi in zip(_stamp_words(last + 1), bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        if stamps is not None:
            words = words[stamps[lo:hi] - first]
        row = d + 1 + width
        _put(out, at + d + 1, row, table[series.obs[lo:hi]], width, slack=d + 1)
        _put(out, at, row, words, d + 1, slack=0)
        at += (hi - lo) * row
    del out[size:]
    return out.translate(None, pad) if pad else out


def _put(out: bytearray, at: int, stride: int, words: np.ndarray, width: int, slack: int) -> None:
    """Write the first ``width`` bytes of each row of little-endian uint64 ``words`` to ``out``, row i at ``at + i*stride``.

    Each 8 bytes go in by one 1-, 2-, 4- or 8-byte integer store into a
    strided view, one view per store, so no two stores of one assignment
    overlap.  A store may run up to ``slack`` bytes past a row's
    ``width``, onto bytes written after it; where the last store would run
    further, the row's last bytes go in by two stores that overlap within
    the row.
    """
    full, rest = divmod(width, 8)
    stores = [(8 * j, 8, words[:, j]) for j in range(full)]
    if rest:
        size = 1 << (rest - 1).bit_length()  # the smallest store that holds them
        if size - rest <= slack:
            stores.append((8 * full, size, words[:, full]))
        elif full:  # the 8 bytes that end the row
            shift = np.uint64(8 * rest)
            stores.append((width - 8, 8, (words[:, full - 1] >> shift) | (words[:, full] << np.uint64(64) - shift)))
        else:  # two stores of half the size, the second ending the row
            half = size // 2
            stores += [(0, half, words[:, 0]), (rest - half, half, words[:, 0] >> np.uint64(8 * (rest - half)))]
    for offset, size, values in stores:
        _words_view(out, len(words), size, at + offset, stride)[...] = values


def transition_counts(series: CatSeries) -> np.ndarray:
    """Jumps j -> j' over all adjacent index pairs: a read-only (k, k) int table, cell ``[j-1, j'-1]``.

    It is the gap-1 table of :attr:`CatSeries.pairs` itself, so its margins
    are ``.sum(axis=1)`` (jump origins) and ``.sum(axis=0)`` (jump targets).
    The series must be complete; the total is then len(series) - 1.
    """
    if series.has_missing:
        raise MissingValuePresent("transition_counts requires a complete series")
    return series.pairs[1][0]


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


def empirical_transition_matrix(series: CatSeries) -> tuple[np.ndarray, np.ndarray]:
    """The transition matrix estimated by row-normalised jump counts: :func:`jump_frequencies` of :func:`transition_counts`.

    ``(probs, defined)``, both read-only: the (k, k) float matrix, NaN on
    the rows of states never seen as a jump origin, and the (k,) bool flag
    of the rows that are defined, so callers can refuse those rows cleanly
    instead of working with silently zero-filled probabilities.
    """
    return _read_only(*jump_frequencies(transition_counts(series)))
