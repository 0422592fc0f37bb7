import urllib.error
import urllib.request

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from btriangles import cli
from btriangles.cli import (
    _DERIVE_ORDER_MAX,
    _LAMBDA_TERMS_MAX,
    _PATHSUM_N_MAX,
    _PATHSUM_ORDER_MAX,
    _SEQUENCE_TERMS_MAX,
    _TRIANGLE_ORDER_MAX,
    _TRIANGLE_ROWS_MAX,
    _VERIFY_N_MAX,
    main,
    run,
)
from btriangles.fibonacci import fib
from btriangles.identities import REGISTRY, IdentityRecord
from btriangles.oeis import BINDINGS
from btriangles.triangle import TriangleStore


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_triangle_human_readable():
    result = invoke("triangle", "--order", "2", "--rows", "3")
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "n=0: 1",
        "n=1: 1 2",
        "n=2: 1 3 4",
        "n=3: 1 4 7 8",
    ]


def test_triangle_tsv():
    result = invoke("triangle", "--order", "3", "--rows", "2", "--tsv")
    assert result.exit_code == 0
    assert result.output.splitlines() == ["n=0\t1", "n=1\t1\t3", "n=2\t1\t4\t8"]


def test_triangle_rejects_bad_order():
    assert invoke("triangle", "--order", "0", "--rows", "3").exit_code == 2


def test_triangle_outside_limits_is_usage_error(monkeypatch):
    def no_work(*args):
        raise AssertionError("triangle built for a rejected request")

    monkeypatch.setattr(cli.triangle, "rows", no_work)
    for order, rows, limit in (
        (_TRIANGLE_ORDER_MAX + 1, 3, f"1<=x<={_TRIANGLE_ORDER_MAX}"),
        (2, _TRIANGLE_ROWS_MAX + 1, f"0<=x<={_TRIANGLE_ROWS_MAX}"),
        (2, -1, f"0<=x<={_TRIANGLE_ROWS_MAX}"),
    ):
        result = invoke("triangle", "--order", str(order), "--rows", str(rows))
        assert result.exit_code == 2
        assert limit in result.output


def test_triangle_limit_corner_is_printable():
    # Entries grow along a row, down the rows and with the order, so the last
    # entry of the last row at the largest order is the largest one printed.
    str(TriangleStore().row(_TRIANGLE_ORDER_MAX, _TRIANGLE_ROWS_MAX)[-1])


def test_pathsum_value():
    result = invoke(
        "pathsum", "--order", "2", "--family", "T", "--c", "-1", "--l", "-1",
        "--n", "8",
    )
    assert result.exit_code == 0
    assert result.output == "73\n"


def test_pathsum_high_order_does_not_recurse_through_lower_orders():
    result = invoke(
        "pathsum", "--order", "1200", "--family", "T", "--c", "-1", "--l", "-1",
        "--n", "3",
    )
    assert result.exit_code == 0
    assert result.output == "1202\n"


def test_pathsum_trace():
    result = invoke(
        "pathsum", "--order", "2", "--family", "S", "--c", "2", "--l", "-1",
        "--n", "4", "--trace",
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "0\t4\t4\t16",
        "1\t3\t2\t7",
        "2\t2\t0\t1",
        "24",
    ]


def test_pathsum_trace_prints_the_walk_total(monkeypatch):
    # The total comes from the traced walk, not from a second walk.
    def second_walk(*args):
        raise AssertionError("path walked twice")

    for family in ("S", "Sbar", "T"):
        monkeypatch.setitem(cli._FAMILY_SUM, family, second_walk)
    for family, c, l, n, total in (
        ("S", 2, -1, 4, "24"), ("Sbar", 2, -1, 9, "89"), ("T", -1, -1, 8, "73"),
    ):
        result = invoke(
            "pathsum", "--order", "2", "--family", family, "--c", str(c),
            "--l", str(l), "--n", str(n), "--trace",
        )
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[-1] == total


def test_pathsum_sbar_total_differs_from_walk():
    result = invoke(
        "pathsum", "--order", "2", "--family", "Sbar", "--c", "2", "--l", "-1",
        "--n", "9",
    )
    assert result.output.strip() == "89"


def test_pathsum_n_above_limit_is_usage_error():
    result = invoke(
        "pathsum", "--order", "2", "--family", "T", "--c", "-1", "--l", "-1",
        "--n", str(_PATHSUM_N_MAX + 1),
    )
    assert result.exit_code == 2
    assert f"x<={_PATHSUM_N_MAX}" in result.output


def test_pathsum_help_states_n_limit():
    result = invoke("pathsum", "--help")
    assert result.exit_code == 0
    assert f"x<={_PATHSUM_N_MAX}" in result.output


def test_pathsum_order_above_limit_is_usage_error(monkeypatch):
    def no_work(*args):
        raise AssertionError("path sum computed for a rejected request")

    for family in ("S", "Sbar", "T"):
        monkeypatch.setitem(cli._FAMILY_SUM, family, no_work)
    monkeypatch.setattr(cli, "trace", no_work)
    result = invoke(
        "pathsum", "--order", str(_PATHSUM_ORDER_MAX + 1), "--family", "T",
        "--c", "-1", "--l", "-1", "--n", "3", "--trace",
    )
    assert result.exit_code == 2
    assert f"x<={_PATHSUM_ORDER_MAX}" in result.output


def test_pathsum_help_states_order_limit():
    result = invoke("pathsum", "--help")
    assert result.exit_code == 0
    assert f"x<={_PATHSUM_ORDER_MAX}" in result.output


def test_pathsum_rejects_inadmissible_step():
    result = invoke(
        "pathsum", "--order", "2", "--family", "S", "--c", "-1", "--l", "-1",
        "--n", "5",
    )
    assert result.exit_code == 2


def test_lambda_terms():
    result = invoke("lambda", "--c", "3", "--terms", "8")
    assert result.exit_code == 0
    assert [int(v) for v in result.output.split()] == [0, 0, 1, 1, 1, 2, 3, 4]


def test_lambda_rejects_small_c():
    assert invoke("lambda", "--c", "1", "--terms", "5").exit_code == 2


def test_lambda_terms_outside_range_is_usage_error(monkeypatch):
    def no_work(c, n):
        raise AssertionError("lambda values computed for a rejected request")

    monkeypatch.setattr(cli, "lambda_values", no_work)
    result = invoke("lambda", "--c", "2", "--terms", str(_LAMBDA_TERMS_MAX + 1))
    assert result.exit_code == 2
    assert f"x<={_LAMBDA_TERMS_MAX}" in result.output
    assert invoke("lambda", "--c", "2", "--terms", "0").exit_code == 2


def test_lambda_help_states_terms_limit():
    result = invoke("lambda", "--help")
    assert result.exit_code == 0
    assert f"x<={_LAMBDA_TERMS_MAX}" in result.output


def test_lambda_terms_limit_values_are_printable():
    # lambda grows fastest at c = 2, where lambda_n(2) = F_(n-1).
    str(fib(_LAMBDA_TERMS_MAX - 1))


def test_verify_single_identity():
    result = invoke("verify", "--identity", "theorem1", "--n-max", "40")
    assert result.exit_code == 0
    assert result.output == "theorem1 n=[0..40] OK\n"


def test_verify_all_lists_every_identity_sorted():
    result = invoke("verify", "--all", "--n-max", "20")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    names = [line.split()[0] for line in lines]
    assert names == sorted(REGISTRY)
    assert all(line.endswith("OK") for line in lines)


def test_verify_flag_exclusivity():
    assert invoke("verify", "--n-max", "10").exit_code == 2
    assert (
        invoke(
            "verify", "--all", "--identity", "theorem1", "--n-max", "10"
        ).exit_code
        == 2
    )


def test_verify_unknown_identity_is_usage_error():
    assert invoke("verify", "--identity", "thm99", "--n-max", "10").exit_code == 2


def test_verify_failure_exits_one(monkeypatch):
    rec = IdentityRecord(
        "bogus", lambda n: 0, lambda n: int(n == 2), 0, "negative control"
    )
    monkeypatch.setitem(REGISTRY, "bogus", rec)
    result = invoke("verify", "--identity", "bogus", "--n-max", "5")
    assert result.exit_code == 1
    assert "bogus FAIL at n=2: closed=0 oracle=1" in result.output


def test_verify_n_max_above_limit_is_usage_error(monkeypatch):
    def no_work(*args):
        raise AssertionError("sweep run for a rejected request")

    monkeypatch.setattr(cli.identities, "verify", no_work)
    monkeypatch.setattr(cli.identities, "verify_all", no_work)
    for args in (("--all",), ("--identity", "theorem1")):
        result = invoke("verify", *args, "--n-max", str(_VERIFY_N_MAX + 1))
        assert result.exit_code == 2
        assert f"x<={_VERIFY_N_MAX}" in result.output


def test_verify_help_states_n_max_limit():
    result = invoke("verify", "--help")
    assert result.exit_code == 0
    assert f"x<={_VERIFY_N_MAX}" in result.output


def test_derive_poly_printout():
    result = invoke("derive-poly", "--order", "4")
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "Q = 1/8 X^2 + 17/8 X + 10",
        "R = 1/4 X + 2",
    ]


def test_derive_poly_order_one_prints_zeros():
    result = invoke("derive-poly", "--order", "1")
    assert result.output.splitlines() == ["Q = 0", "R = 0"]


def test_derive_poly_order_above_limit_is_usage_error():
    result = invoke("derive-poly", "--order", str(_DERIVE_ORDER_MAX + 1))
    assert result.exit_code == 2
    assert f"x<={_DERIVE_ORDER_MAX}" in result.output


def test_derive_poly_limit_values_are_printable():
    # The numerators and denominators grow with the order, so the pair at the
    # largest order holds the largest ones printed.
    pair = cli.derive_QR(_DERIVE_ORDER_MAX)
    str(pair.Q), str(pair.R)


def test_derive_poly_help_states_order_limit():
    result = invoke("derive-poly", "--help")
    assert result.exit_code == 0
    assert f"x<={_DERIVE_ORDER_MAX}" in result.output


def test_sequence_prints_terms():
    result = invoke("sequence", "--id", "A000045", "--terms", "5")
    assert result.exit_code == 0
    assert result.output.splitlines() == ["0", "1", "1", "2", "3"]


def test_sequence_exports_bfile(tmp_path):
    path = tmp_path / "out.txt"
    result = invoke(
        "sequence", "--id", "A000045", "--terms", "3", "--bfile", str(path)
    )
    assert result.exit_code == 0
    assert result.output == ""
    assert path.read_text() == "0 0\n1 1\n2 1\n"


def test_sequence_unwritable_bfile_exits_one(tmp_path):
    path = tmp_path / "missing" / "x.txt"
    result = invoke(
        "sequence", "--id", "A000045", "--terms", "3", "--bfile", str(path)
    )
    assert result.exit_code == 1
    assert result.output.startswith("Error:")
    assert str(path) in result.output
    assert isinstance(result.exception, SystemExit)
    assert not path.exists()


def test_sequence_terms_above_limit_is_usage_error(monkeypatch, tmp_path):
    def no_work(*args):
        raise AssertionError("terms computed for a rejected request")

    monkeypatch.setattr(cli.oeis, "terms", no_work)
    monkeypatch.setattr(cli.oeis, "export_bfile", no_work)
    path = tmp_path / "out.txt"
    over = str(_SEQUENCE_TERMS_MAX + 1)
    for extra in ((), ("--bfile", str(path))):
        result = invoke("sequence", "--id", "A000045", "--terms", over, *extra)
        assert result.exit_code == 2
        assert result.output.startswith("Usage:")
        assert f"x<={_SEQUENCE_TERMS_MAX}" in result.output
    assert not path.exists()


def test_sequence_help_states_terms_limit():
    result = invoke("sequence", "--help")
    assert result.exit_code == 0
    assert f"1<=x<={_SEQUENCE_TERMS_MAX}" in result.output


def test_sequence_terms_limit_values_are_printable():
    # Term j of any binding reads index n <= j + 1, where every construction is
    # below (n + 2) 2^n: the path sums are at most 2 cell(3, n, n) = (n + 2) 2^n,
    # lambda_n(c) <= F_n and the triangle rows stay far smaller.
    str((_SEQUENCE_TERMS_MAX + 3) << (_SEQUENCE_TERMS_MAX + 1))


def test_sequence_unknown_id():
    assert invoke("sequence", "--id", "A999999", "--terms", "5").exit_code == 2


def test_oeis_check_single():
    result = invoke("oeis-check", "--id", "A099568", "--terms", "40")
    assert result.exit_code == 0
    assert result.output == "A099568 n=[0..39] OK\n"


def test_oeis_check_all_offline():
    result = invoke("oeis-check", "--all", "--terms", "50")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 11
    assert all(line.endswith("OK") for line in lines)
    assert [line.split()[0] for line in lines] == sorted(
        line.split()[0] for line in lines
    )


def test_oeis_check_flag_exclusivity():
    assert invoke("oeis-check", "--terms", "10").exit_code == 2


def test_oeis_check_unknown_id():
    assert invoke("oeis-check", "--id", "A999999", "--terms", "10").exit_code == 2


def test_oeis_check_rejects_nonpositive_terms():
    # Exit 1 means a cross-check failed; a bad count is a usage error.
    for terms in ("0", "-3"):
        assert invoke("oeis-check", "--all", "--terms", terms).exit_code == 2
        assert (
            invoke("oeis-check", "--id", "A000045", "--terms", terms).exit_code
            == 2
        )


def test_parse_error_exit_code():
    assert invoke("pathsum", "--order", "x").exit_code == 2


def test_run_helper_exit_codes():
    assert run(["derive-poly", "--order", "2"]) == 0
    assert run(["no-such-command"]) == 2
    assert run(["verify", "--n-max", "5"]) == 2


def test_oeis_check_oversize_request_is_usage_error():
    # Exit 1 is reserved for a mismatch; asking for more terms than the
    # b-file holds is a usage error, as it is for `sequence`.
    result = invoke("oeis-check", "--id", "A000045", "--terms", "100000")
    assert result.exit_code == 2
    assert "b-file covers indices 0..99" in result.output


def test_oeis_check_bad_online_bfile_exits_one(tmp_path, monkeypatch):
    import urllib.request

    def refuse(*args, **kwargs):
        raise OSError("network unreachable")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    monkeypatch.setenv("BERNOULLI_CACHE_DIR", str(tmp_path))
    unreachable = invoke("oeis-check", "--id", "A000045", "--terms", "5", "--online")
    assert unreachable.exit_code == 1
    assert "no cached copy" in unreachable.output
    (tmp_path / "b000045.txt").write_text("0 zero\n")
    malformed = invoke("oeis-check", "--id", "A000045", "--terms", "5", "--online")
    assert malformed.exit_code == 1
    assert "non-integer field" in malformed.output


def _int(small, limit=None):
    # A small valid value, or an IntRange edge from outside: limit + 1, 0, -1.
    edges = [0, -1] if limit is None else [limit + 1, 0, -1]
    return st.one_of(st.integers(*small), st.sampled_from(edges)).map(str)


_IDS = st.sampled_from(
    [*sorted(BINDINGS), "A999999", "A12", "b000045", "", "A0000451"]
)


@st.composite
def _cli_args(draw):
    command = draw(st.sampled_from(
        ["triangle", "pathsum", "lambda", "verify", "derive-poly", "sequence", "oeis-check"]
    ))
    args = [command]
    if command == "triangle":
        args += ["--order", draw(_int((1, 4), _TRIANGLE_ORDER_MAX))]
        args += ["--rows", draw(_int((0, 6), _TRIANGLE_ROWS_MAX))]
        args += ["--tsv"] * draw(st.booleans())
    elif command == "pathsum":
        args += ["--order", draw(_int((1, 4), _PATHSUM_ORDER_MAX))]
        args += ["--family", draw(st.sampled_from(["S", "Sbar", "T", "U"]))]
        args += ["--c", str(draw(st.integers(-3, 4)))]
        args += ["--l", str(draw(st.integers(-3, 1)))]
        args += ["--n", draw(_int((0, 12), _PATHSUM_N_MAX))]
        args += ["--trace"] * draw(st.booleans())
    elif command == "lambda":
        args += ["--c", str(draw(st.integers(-1, 5)))]
        args += ["--terms", draw(_int((1, 10), _LAMBDA_TERMS_MAX))]
    elif command == "verify":
        names = st.sampled_from([*sorted(REGISTRY), "thm99", ""])
        args += ["--all"] * draw(st.booleans())
        args += ["--identity", draw(names)] * draw(st.booleans())
        args += ["--n-max", draw(_int((0, 12), _VERIFY_N_MAX))]
    elif command == "derive-poly":
        args += ["--order", draw(_int((1, 6), _DERIVE_ORDER_MAX))]
    elif command == "sequence":
        args += ["--id", draw(_IDS)]
        args += ["--terms", draw(_int((1, 10), _SEQUENCE_TERMS_MAX))]
        # b-file targets, named here and placed under tmp_path by the test.
        target = draw(st.sampled_from([None, "file", "missing", "dir"]))
        args += [] if target is None else ["--bfile", target]
    else:
        args += ["--all"] * draw(st.booleans())
        args += ["--id", draw(_IDS)] * draw(st.booleans())
        args += ["--terms", draw(_int((1, 10)))]
        args += ["--online"] * draw(st.booleans())
    return args


# tmp_path and monkeypatch are shared by every example: each one applies the
# same patches, and no example depends on what another wrote under tmp_path.
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(args=_cli_args())
@example(args=["sequence", "--id", "A000045", "--terms", "3", "--bfile", "missing"])
def test_cli_requests_exit_cleanly(tmp_path, monkeypatch, args):
    # Every request ends in exit 0, 1 or 2, never in an uncaught exception.
    def offline(*args, **kwargs):
        raise urllib.error.URLError("offline")

    monkeypatch.setattr(urllib.request, "urlopen", offline)
    monkeypatch.setenv("BERNOULLI_CACHE_DIR", str(tmp_path / "cache"))
    targets = {
        "file": tmp_path / "out.txt",
        "missing": tmp_path / "missing" / "x.txt",
        "dir": tmp_path,
    }
    if "--bfile" in args:
        i = args.index("--bfile") + 1
        args[i] = str(targets[args[i]])
    result = invoke(*args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args,
        result.exception,
    )
