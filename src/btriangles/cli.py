"""Command-line frontend.

One subcommand per capability: triangle rows, path sums, the lambda
sequences, identity verification sweeps, polynomial derivation,
sequence export, and b-file cross-checks.  Exit codes: 0 success,
1 verification or cross-check failure or a b-file that cannot be
fetched or written, 2 usage errors.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from itertools import islice

import click

from . import identities, oeis, triangle
from .gfib import lambda_values
from .paths import InvalidPathSpec, PathSpec, sum_S, sum_Sbar, sum_T, trace
from .polyderive import derive_QR

_FAMILY_SUM = {"S": sum_S, "Sbar": sum_Sbar, "T": sum_T}

# Measured: triangle --order 1200 --rows 1000 prints in 2.1 s and rows 0..2000
# print in 19 s (CPython 3.11, 2 vCPUs); the cost, almost all of it converting
# entries to decimal, grows about 9x per doubling of rows. The rows alone stream
# in 0.1 s. The largest entry printed, cell(1200, 1000, 1000), has 808 digits.
_TRIANGLE_ORDER_MAX = 1200
_TRIANGLE_ROWS_MAX = 1000
# Measured in process (CPython 3.11, 2 vCPUs): T(2, -1, -1), S(2, 2, -1) and
# Sbar(3, 2, -1) take 0.2-0.3 s at n = 4000 and 0.6-1.1 s at n = 6000, as the
# stepped windows grow as n^2. S(3, 40, -1), whose cone covers rows 0..3900
# whole at n = 4000, builds that row by one series recurrence and takes 0.05 s
# and 0.19 s.
_PATHSUM_N_MAX = 4000
# Printing sets the order cap. For m >= 2 the largest sum at n = 4000 is
# S(m, 1, -1), the sum of the diagonal: any other S or T path visits at most one
# cell per row, none larger than that row's diagonal cell, and Sbar is at most
# cell(m, n, n). At order 12308 that sum has 4300 digits, CPython's int-to-str
# limit, and at 12309 4301 (found by bisection; the largest Sbar and T sums pass
# the limit at orders 12310 and 12317). Measured in process at n = 4000 and
# order 12308 (CPython 3.11, 2 vCPUs): T(m, -1, -1) 0.66 s, S(m, 2, -1) 1.35 s
# and S(m, 40, -1) 0.19 s, as a row is built or stepped in O(n) operations at
# any order; the slowest command, pathsum --trace along S(m, 2, -1), takes 1.9 s.
_PATHSUM_ORDER_MAX = 12308
# lambda grows fastest at c = 2: lambda_20579(2) is over CPython's int-to-str limit.
_LAMBDA_TERMS_MAX = 20000
# Measured (CPython 3.11, 2 vCPUs): derive-poly, derivation and printing, takes
# 1.1 s at order 800, 2.0 s at order 1000, 2.6 s at 1100 and 3.2 s at 1200. The
# largest numerator or denominator printed at order 1000 has 2863 digits, under
# CPython's 4300-digit int-to-str limit.
_DERIVE_ORDER_MAX = 1000
# Measured (CPython 3.11, 2 vCPUs, the four oracle passes split over both):
# verify --all takes 1.6-2.4 s at n-max 1000 (24 MB peak RSS per process) and
# 14 s at 2000 (37 MB), where the T-pair pass alone sets the time. On one CPU
# (taskset -c 0) n-max 1000 takes 4.0-4.1 s. The cost grows 5-7x per doubling.
_VERIFY_N_MAX = 1000
# Measured: the path-sum bindings take 1.8-2.3 s for 4000 terms, one pass over
# full rows 0..4000; every such term prints under CPython's 4300-digit
# int-to-str limit (the largest has 1205 digits).
_SEQUENCE_TERMS_MAX = 4000


@click.group()
def main() -> None:
    """Exact arithmetic on iterated partial-sum triangles."""


@main.command("triangle")
@click.option(
    "--order",
    type=click.IntRange(1, _TRIANGLE_ORDER_MAX),
    required=True,
    help="triangle order",
)
@click.option(
    "--rows",
    type=click.IntRange(0, _TRIANGLE_ROWS_MAX),
    required=True,
    help="last row index to print",
)
@click.option("--tsv", is_flag=True, help="tab-separated row dump: n=<row>, entries")
def triangle_cmd(order: int, rows: int, tsv: bool) -> None:
    """Print rows 0..ROWS of the order-ORDER triangle."""
    for n, row in enumerate(islice(triangle.rows(order), rows + 1)):
        if tsv:
            click.echo(f"n={n}\t" + "\t".join(str(v) for v in row))
        else:
            click.echo(f"n={n}: " + " ".join(str(v) for v in row))


@main.command("pathsum")
@click.option(
    "--order",
    type=click.IntRange(max=_PATHSUM_ORDER_MAX),
    required=True,
    help="triangle order, >= 1",
)
@click.option(
    "--family", type=click.Choice(["S", "Sbar", "T"]), required=True
)
@click.option("--c", type=int, required=True, help="column drop per step")
@click.option("--l", type=int, required=True, help="row step")
@click.option(
    "--n", type=click.IntRange(max=_PATHSUM_N_MAX), required=True, help="path-sum index"
)
@click.option("--trace", "show_trace", is_flag=True, help="list visited cells")
def pathsum_cmd(
    order: int, family: str, c: int, l: int, n: int, show_trace: bool
) -> None:
    """Print one path sum, optionally with the cells it visits."""
    try:
        spec = PathSpec(order, c, l, family, n)
        if show_trace:
            walk = trace(spec)
            for k, ((row, col), value) in enumerate(zip(walk.cells, walk.values)):
                click.echo(f"{k}\t{row}\t{col}\t{value}")
            total = walk.total
        else:
            total = _FAMILY_SUM[family](order, c, l, n)
    except InvalidPathSpec as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(str(total))


@main.command("lambda")
@click.option("--c", type=int, required=True, help="column drop, >= 2")
@click.option(
    "--terms",
    type=click.IntRange(1, _LAMBDA_TERMS_MAX),
    required=True,
    help="number of terms",
)
def lambda_cmd(c: int, terms: int) -> None:
    """Print the generalized Fibonacci values lambda_1(c)..lambda_TERMS(c)."""
    try:
        values = lambda_values(c, terms)[1:]
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    for value in values:
        click.echo(str(value))


@main.command("verify")
@click.option("--identity", "name", type=str, default=None, help="one identity")
@click.option("--all", "run_all", is_flag=True, help="every registered identity")
@click.option(
    "--n-max",
    type=click.IntRange(max=_VERIFY_N_MAX),
    required=True,
    help="sweep upper bound",
)
@click.pass_context
def verify_cmd(
    ctx: click.Context, name: str | None, run_all: bool, n_max: int
) -> None:
    """Sweep identities against their brute-force oracles."""
    if run_all == (name is not None):
        raise click.UsageError("pass exactly one of --identity NAME or --all")
    try:
        if run_all:
            reports = identities.verify_all(n_max)
        else:
            reports = [identities.verify(name, n_max)]
    except (KeyError, ValueError) as exc:
        raise click.UsageError(str(exc.args[0])) from exc
    for report in reports:
        click.echo(report.summary())
    if any(not r.ok for r in reports):
        ctx.exit(1)


@main.command("derive-poly")
@click.option(
    "--order",
    type=click.IntRange(1, _DERIVE_ORDER_MAX),
    required=True,
    help="triangle order",
)
def derive_poly_cmd(order: int) -> None:
    """Print the polynomial pair of the order-ORDER T-path closed form."""
    pair = derive_QR(order)
    click.echo(f"Q = {pair.Q}")
    click.echo(f"R = {pair.R}")


@main.command("sequence")
@click.option("--id", "oeis_id", type=str, required=True, help="OEIS id, AXXXXXX")
@click.option(
    "--terms",
    "count",
    type=click.IntRange(1, _SEQUENCE_TERMS_MAX),
    required=True,
    help="number of terms",
)
@click.option(
    "--bfile",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="write b-file here instead of printing",
)
def sequence_cmd(oeis_id: str, count: int, bfile: str | None) -> None:
    """Print or export terms of a bound sequence."""
    try:
        if bfile is None:
            for value in oeis.terms(oeis_id, count):
                click.echo(str(value))
        else:
            try:
                oeis.export_bfile(oeis_id, count, bfile)
            except OSError as exc:
                raise click.FileError(bfile, hint=exc.strerror) from exc
    except (KeyError, ValueError) as exc:
        raise click.UsageError(str(exc.args[0])) from exc


@main.command("oeis-check")
@click.option("--id", "oeis_id", type=str, default=None, help="one OEIS id")
@click.option("--all", "run_all", is_flag=True, help="every binding")
@click.option(
    "--terms",
    "count",
    type=click.IntRange(min=1),
    required=True,
    help="terms to check",
)
@click.option(
    "--online",
    is_flag=True,
    help="fetch live b-files (cached) instead of bundled snapshots",
)
@click.pass_context
def oeis_check_cmd(
    ctx: click.Context,
    oeis_id: str | None,
    run_all: bool,
    count: int,
    online: bool,
) -> None:
    """Cross-check bound sequences against b-files."""
    if run_all == (oeis_id is not None):
        raise click.UsageError("pass exactly one of --id AXXXXXX or --all")
    ids = sorted(oeis.BINDINGS) if run_all else [oeis_id]
    reports = []
    for seq in ids:
        try:
            reports.append(oeis.crosscheck(seq, count, online=online))
        except (KeyError, oeis.BFileRangeError) as exc:
            raise click.UsageError(str(exc.args[0])) from exc
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
    for report in reports:
        click.echo(report.summary())
    if any(not r.ok for r in reports):
        ctx.exit(1)


def run(argv: Sequence[str] | None = None) -> int:
    """Invoke the CLI programmatically and return its exit status."""
    try:
        main(
            args=list(argv) if argv is not None else None,
            prog_name="btriangles",
            standalone_mode=True,
        )
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
