"""Bindings from package constructions to published integer sequences.

Each binding names an OEIS sequence, the construction that generates
it, and the frozen index offset aligning the two.  Offsets were
resolved once by sliding a computed prefix along the b-file until it
matched at exactly one position (:func:`resolve_offset` reproduces the
procedure); the winning index is recorded in the binding table and the
test suite re-derives it.

b-files are the OEIS interchange format: one ``<index> <value>`` pair
per line, ``#`` comments allowed.  Snapshot b-files generated from
published recurrences are bundled under ``data/bfiles`` so cross-checks
run offline; live fetching is available but never required.
"""

from __future__ import annotations

import itertools
import os
import re
import tempfile
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path

from .fibonacci import fib
from .gfib import lambda_values
from .identities import VerifyReport
from .paths import path_sums
from .triangle import rows

__all__ = [
    "BFile",
    "SequenceBinding",
    "BFileFetchError",
    "BINDINGS",
    "parse_bfile",
    "load_snapshot",
    "fetch_bfile",
    "terms",
    "export_bfile",
    "resolve_offset",
    "crosscheck",
]

_ID_PATTERN = re.compile(r"\AA\d{6}\Z")


class BFileFetchError(OSError):
    """Raised when a b-file can be neither fetched nor found in cache."""


class BFileRangeError(ValueError):
    """Raised when a cross-check asks for terms its b-file does not cover."""


@dataclass(frozen=True)
class BFile:
    """Parsed b-file: (index, value) pairs with consecutive indices."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for (i, _), (j, _) in zip(self.entries, self.entries[1:]):
            if j != i + 1:
                raise ValueError(f"b-file indices jump from {i} to {j}")

    @property
    def first_index(self) -> int:
        return self.entries[0][0]

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.entries)


@dataclass(frozen=True)
class SequenceBinding:
    """One construction bound to an OEIS id at a frozen offset.

    ``generator(count)`` returns the first ``count`` terms of the
    construction as a list; term j (j = 0 is its first defined term)
    carries b-file index ``offset + j``.
    """

    oeis_id: str
    generator: Callable[[int], list[int]]
    offset: int
    note: str


def parse_bfile(text: str, source: str = "<string>") -> BFile:
    """Parse b-file text, skipping blank lines and # comments."""
    entries: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise ValueError(
                f"{source}:{lineno}: expected 'index value', got {line!r}"
            )
        try:
            entries.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValueError(
                f"{source}:{lineno}: non-integer field in {line!r}"
            ) from None
    if not entries:
        raise ValueError(f"{source}: no entries found")
    return BFile(tuple(entries))


def _check_id(oeis_id: str) -> str:
    if not _ID_PATTERN.match(oeis_id):
        raise ValueError(f"malformed OEIS id {oeis_id!r}")
    return oeis_id


def load_snapshot(oeis_id: str) -> BFile:
    """Parse the bundled snapshot b-file for one sequence."""
    _check_id(oeis_id)
    path = resources.files("btriangles") / "data" / "bfiles" / f"{oeis_id}.txt"
    return parse_bfile(path.read_text(), f"snapshot {oeis_id}")


def _default_cache_dir() -> Path:
    env = os.environ.get("BERNOULLI_CACHE_DIR")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "btriangles"


def fetch_bfile(oeis_id: str, cache_dir: str | os.PathLike | None = None) -> BFile:
    """Fetch a live b-file, caching a verbatim copy for later offline use.

    A cached copy short-circuits the network entirely, so a warm cache
    keeps working when the network is down; with neither cache nor
    network this raises :class:`BFileFetchError` (parse problems raise
    ValueError instead).
    """
    _check_id(oeis_id)
    directory = Path(cache_dir) if cache_dir is not None else _default_cache_dir()
    cached = directory / f"b{oeis_id[1:]}.txt"
    if cached.exists():
        return parse_bfile(cached.read_text(), str(cached))
    # Imported here: urllib.request is slow to import (it pulls in
    # http, ssl and email) and only this live-fetch path needs it.
    import urllib.error
    import urllib.request

    url = f"https://oeis.org/{oeis_id}/b{oeis_id[1:]}.txt"
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            payload = response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise BFileFetchError(
            f"cannot fetch {url} and no cached copy at {cached}: {exc}"
        ) from exc
    # Parsed before caching, so a malformed response never reaches the cache.
    bfile = parse_bfile(payload.decode("ascii"), url)
    directory.mkdir(parents=True, exist_ok=True)
    # Temp-then-rename so a concurrent reader never sees a partial file.
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, cached)
    except BaseException:
        os.unlink(tmp_name)
        raise
    return bfile


# Generators return the first ``count`` terms of their construction.
# Triangles are read row by row, left to right.


def _fib_terms(count: int) -> list[int]:
    return [fib(j) for j in range(count)]


def _lambda_terms(c: int, count: int) -> list[int]:
    return lambda_values(c, count + c - 1)[c:]


def _row_terms(m: int, count: int) -> list[int]:
    return list(itertools.islice(itertools.chain.from_iterable(rows(m)), count))


def _path_terms(m: int, c: int, l: int, family: str, count: int) -> list[int]:
    return path_sums(m, c, l, family, count - 1)


def _sbar31diff3_terms(count: int) -> list[int]:
    sums = path_sums(3, 3, -1, "Sbar", count)
    return [b - 2 * a for a, b in zip(sums, sums[1:])]


_BINDING_LIST = [
    SequenceBinding(
        "A000045",
        _fib_terms,
        0,
        "Fibonacci numbers F_0, F_1, ...; aligned seed-for-seed",
    ),
    SequenceBinding(
        "A000930",
        partial(_lambda_terms, 3),
        0,
        "lambda(3) from its first nonzero term n=3; offset by window match",
    ),
    SequenceBinding(
        "A003269",
        partial(_lambda_terms, 4),
        1,
        "lambda(4) from its first nonzero term n=4; offset by window match",
    ),
    SequenceBinding(
        "A003520",
        partial(_lambda_terms, 5),
        0,
        "lambda(5) from its first nonzero term n=5; offset by window match",
    ),
    SequenceBinding(
        "A005251",
        partial(_path_terms, 2, 3, -1, "Sbar"),
        3,
        "order-2 complementary path sum along (3,-1); offset by window match",
    ),
    SequenceBinding(
        "A005314",
        _sbar31diff3_terms,
        1,
        "order-3 (3,-1) complementary sum differences from n=1; "
        "offset by window match",
    ),
    SequenceBinding(
        "A008949",
        partial(_row_terms, 2),
        0,
        "order-2 triangle read by rows; offset by window match",
    ),
    SequenceBinding(
        "A027934",
        partial(_path_terms, 2, 2, -1, "S"),
        1,
        "order-2 path sum along (2,-1) from n=0; offset by window match "
        "(the bound sequence starts one index later than the b-file)",
    ),
    SequenceBinding(
        "A099568",
        partial(_path_terms, 2, 3, -2, "S"),
        0,
        "order-2 path sum along (3,-2) from n=0; offset by window match",
    ),
    SequenceBinding(
        "A138653",
        partial(_path_terms, 2, 4, -1, "Sbar"),
        0,
        "order-2 complementary path sum along (4,-1); offset by window match",
    ),
    SequenceBinding(
        "A193605",
        partial(_row_terms, 3),
        0,
        "order-3 triangle read by rows; offset by window match",
    ),
]

BINDINGS: dict[str, SequenceBinding] = {b.oeis_id: b for b in _BINDING_LIST}


def _resolve(binding: SequenceBinding | str) -> SequenceBinding:
    if isinstance(binding, SequenceBinding):
        return binding
    try:
        return BINDINGS[binding]
    except KeyError:
        raise KeyError(
            f"unknown binding {binding!r}; known: {', '.join(sorted(BINDINGS))}"
        ) from None


def terms(binding: SequenceBinding | str, count: int) -> list[int]:
    """First ``count`` terms of a bound construction."""
    b = _resolve(binding)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return b.generator(count)


def export_bfile(
    binding: SequenceBinding | str,
    count: int,
    destination: str | os.PathLike,
) -> BFile:
    """Write ``count`` terms in b-file format, indexed from the offset."""
    b = _resolve(binding)
    values = terms(b, count)
    entries = tuple((b.offset + j, v) for j, v in enumerate(values))
    body = "".join(f"{i} {v}\n" for i, v in entries)
    Path(destination).write_text(body, encoding="ascii")
    return BFile(entries)


def resolve_offset(
    values: Sequence[int], bfile: BFile, window: int = 12
) -> int:
    """Index at which a computed prefix aligns with a b-file, uniquely.

    Slides the first ``window`` values along the b-file; exactly one
    matching position must exist, otherwise the alignment is ambiguous
    (or wrong) and a ValueError describes which.
    """
    if window < 12:
        raise ValueError(f"window must be >= 12 for a trustworthy match, got {window}")
    if len(values) < window:
        raise ValueError(f"need at least {window} values, got {len(values)}")
    prefix = tuple(values[:window])
    stream = bfile.values()
    hits = [
        bfile.entries[p][0]
        for p in range(len(stream) - window + 1)
        if tuple(stream[p : p + window]) == prefix
    ]
    if not hits:
        raise ValueError("prefix does not occur in the b-file")
    if len(hits) > 1:
        raise ValueError(f"prefix occurs at multiple indices {hits}")
    return hits[0]


def crosscheck(
    binding: SequenceBinding | str,
    count: int,
    cache_dir: str | os.PathLike | None = None,
    online: bool = False,
) -> VerifyReport:
    """Compare generated terms against the b-file at the frozen offset.

    Uses the bundled snapshot by default; ``online=True`` fetches the
    live b-file (through the cache) instead.  The report's failures
    list pairs computed values with b-file values by b-file index.  A
    ``count`` the b-file does not cover raises :class:`BFileRangeError`,
    a ValueError, before any term is computed.
    """
    b = _resolve(binding)
    started = time.perf_counter()
    bfile = fetch_bfile(b.oeis_id, cache_dir) if online else load_snapshot(b.oeis_id)
    skip = b.offset - bfile.first_index
    if skip < 0 or skip + count > len(bfile.entries):
        raise BFileRangeError(
            f"{b.oeis_id}: b-file covers indices {bfile.first_index}.."
            f"{bfile.entries[-1][0]}, cannot check {count} terms from {b.offset}"
        )
    computed = terms(b, count)
    failures = []
    for j, value in enumerate(computed):
        index, expected = bfile.entries[skip + j]
        if value != expected:
            failures.append((index, value, expected))
    elapsed = time.perf_counter() - started
    return VerifyReport(
        b.oeis_id, b.offset, b.offset + count - 1, tuple(failures), elapsed
    )
