import pytest

from btriangles import identities
from btriangles.identities import (
    REGISTRY,
    IdentityRecord,
    VerifyReport,
    sbar31,
    sbar31diff3,
    sbar41,
    verify,
)

EXPECTED_NAMES = {
    "theorem1",
    "S2diff",
    "relB2diff",
    "corollary1",
    "T2even",
    "T2odd",
    "resT2",
    "rel8",
    "S3barClosed",
    "theoremS3",
    "TmOdd",
    "TmEven",
    "resT3",
    "T4closed",
    "T5closed",
    "theoremTm",
}


def test_registry_contents():
    assert set(REGISTRY) == EXPECTED_NAMES
    for name, rec in REGISTRY.items():
        assert rec.name == name
        assert rec.valid_from in (0, 1)
        assert rec.description


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_every_identity_verifies(name):
    report = verify(name, 50)
    assert report.ok, report.summary()
    assert report.name == name
    assert report.stop == 50
    assert report.elapsed >= 0


def test_closed_sides_never_reach_the_oracle(monkeypatch):
    def oracle(*args):
        raise AssertionError("closed side called oracle code")

    for name in ("cell_bruteforce", "_brute_S", "_brute_Sbar", "_brute_T"):
        monkeypatch.setattr(identities, name, oracle)
    reached = []
    for name, rec in REGISTRY.items():
        try:
            for n in range(rec.valid_from, 21):
                rec.closed_form(n)
        except AssertionError:
            reached.append(name)
    assert reached == []


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        verify("thm99", 10)


def test_n_max_below_valid_from_raises():
    with pytest.raises(ValueError):
        verify("S2diff", 0)


def test_report_summary_formats():
    ok = VerifyReport("theorem1", 0, 50, (), 0.1)
    assert ok.summary() == "theorem1 n=[0..50] OK"
    bad = VerifyReport("theorem1", 0, 50, ((7, 10, 11),), 0.1)
    assert not bad.ok
    assert bad.summary() == "theorem1 FAIL at n=7: closed=10 oracle=11"


def test_failing_record_is_reported(monkeypatch):
    rec = IdentityRecord(
        "bogus", lambda n: n * n, lambda n: n * n + (n == 3), 0, "negative control"
    )
    monkeypatch.setitem(REGISTRY, "bogus", rec)
    report = verify("bogus", 10)
    assert report.failures == ((3, 9, 10),)
    assert "FAIL at n=3" in report.summary()


def test_sequence_generators_without_closed_forms():
    assert [sbar31(n) for n in range(13)] == [
        1, 2, 4, 7, 12, 21, 37, 65, 114, 200, 351, 616, 1081,
    ]
    assert [sbar41(n) for n in range(13)] == [
        1, 2, 4, 8, 15, 27, 48, 86, 156, 285, 521, 950, 1728,
    ]
    assert [sbar31diff3(n) for n in range(1, 13)] == [
        1, 2, 3, 5, 9, 16, 28, 49, 86, 151, 265, 465,
    ]


def test_diff_generator_rejects_zero():
    with pytest.raises(ValueError):
        sbar31diff3(0)
