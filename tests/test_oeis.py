import os
import subprocess
import sys
from pathlib import Path

import pytest

import btriangles
from btriangles.identities import sbar31, sbar31diff3, sbar41
from btriangles.oeis import (
    BINDINGS,
    BFile,
    BFileFetchError,
    SequenceBinding,
    crosscheck,
    export_bfile,
    fetch_bfile,
    load_snapshot,
    parse_bfile,
    resolve_offset,
    terms,
)
from btriangles.paths import sum_S

ALL_IDS = [
    "A000045",
    "A000930",
    "A003269",
    "A003520",
    "A005251",
    "A005314",
    "A008949",
    "A027934",
    "A099568",
    "A138653",
    "A193605",
]


def test_binding_table_covers_all_cited_sequences():
    assert sorted(BINDINGS) == ALL_IDS


def test_parse_skips_comments_and_blanks():
    bf = parse_bfile("# header\n\n0 1\n1 1\n2 2\n  \n# tail\n")
    assert bf.entries == ((0, 1), (1, 1), (2, 2))
    assert bf.first_index == 0
    assert bf.values() == (1, 1, 2)


def test_parse_reports_line_numbers():
    with pytest.raises(ValueError, match="input:2"):
        parse_bfile("0 1\n12 x7\n", source="input")
    with pytest.raises(ValueError, match="input:3"):
        parse_bfile("0 1\n1 2\n2 3 4\n", source="input")
    with pytest.raises(ValueError):
        parse_bfile("# only comments\n")


def test_bfile_requires_consecutive_indices():
    with pytest.raises(ValueError):
        BFile(((0, 1), (2, 1)))
    with pytest.raises(ValueError):
        parse_bfile("0 1\n0 1\n")


def test_snapshots_load_for_every_binding():
    for oeis_id in ALL_IDS:
        snap = load_snapshot(oeis_id)
        assert len(snap.entries) >= 50


def test_terms_examples():
    assert terms("A008949", 10) == [1, 1, 2, 1, 3, 4, 1, 4, 7, 8]
    assert terms("A193605", 10) == [1, 1, 3, 1, 4, 8, 1, 5, 12, 20]
    assert terms("A000045", 8) == [0, 1, 1, 2, 3, 5, 8, 13]


def test_path_sum_bindings_match_per_index_functions():
    # The bindings generate their terms in one pass over the rows; the
    # public per-index functions must give the same terms.
    per_index = {
        "A005251": sbar31,
        "A005314": lambda j: sbar31diff3(j + 1),
        "A027934": lambda j: sum_S(2, 2, -1, j),
        "A099568": lambda j: sum_S(2, 3, -2, j),
        "A138653": sbar41,
    }
    for oeis_id, term in per_index.items():
        assert terms(oeis_id, 40) == [term(j) for j in range(40)], oeis_id


def test_terms_rejects_unknown_and_bad_count():
    with pytest.raises(KeyError):
        terms("A999999", 5)
    with pytest.raises(ValueError):
        terms("A000045", 0)


def test_export_format_example(tmp_path):
    path = tmp_path / "b000045.txt"
    written = export_bfile("A000045", 3, path)
    assert path.read_text() == "0 0\n1 1\n2 1\n"
    assert written.entries == ((0, 0), (1, 1), (2, 1))


def test_export_parse_round_trip(tmp_path):
    for oeis_id in ("A027934", "A005251", "A008949"):
        path = tmp_path / f"{oeis_id}.txt"
        written = export_bfile(oeis_id, 40, path)
        assert parse_bfile(path.read_text(), str(path)).entries == written.entries


def test_offsets_reresolve_to_frozen_values():
    for oeis_id, binding in BINDINGS.items():
        snap = load_snapshot(oeis_id)
        prefix = terms(binding, 20)
        assert resolve_offset(prefix, snap) == binding.offset, oeis_id


def test_resolve_offset_rejects_ambiguity():
    flat = BFile(tuple((i, 1) for i in range(40)))
    with pytest.raises(ValueError, match="multiple"):
        resolve_offset([1] * 12, flat)
    with pytest.raises(ValueError, match="does not occur"):
        resolve_offset([9] * 12, flat)
    with pytest.raises(ValueError):
        resolve_offset([1] * 5, flat)  # too few values
    with pytest.raises(ValueError):
        resolve_offset([1] * 12, flat, window=6)  # window too narrow


def test_crosscheck_all_bindings_offline():
    for oeis_id in ALL_IDS:
        report = crosscheck(oeis_id, 50)
        assert report.ok, report.summary()


def test_crosscheck_negative_control():
    wrong = SequenceBinding(
        "A000045",
        lambda count: [j * j for j in range(count)],
        0,
        "deliberately mis-bound",
    )
    report = crosscheck(wrong, 20)
    assert not report.ok
    assert report.failures


def test_crosscheck_count_beyond_snapshot():
    with pytest.raises(ValueError, match="cannot check"):
        crosscheck("A000045", 10_000)


def test_fetch_uses_warm_cache_without_network(tmp_path):
    cached = tmp_path / "b000045.txt"
    cached.write_text("0 0\n1 1\n2 1\n3 2\n")
    bf = fetch_bfile("A000045", cache_dir=tmp_path)
    assert bf.values() == (0, 1, 1, 2)


def test_fetch_without_cache_or_network_raises(tmp_path, monkeypatch):
    # Force resolution failure fast regardless of sandbox networking.
    import urllib.request

    def refuse(*args, **kwargs):
        raise OSError("network unreachable")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    with pytest.raises(BFileFetchError, match="no cached copy"):
        fetch_bfile("A000045", cache_dir=tmp_path / "empty")


def test_fetch_does_not_cache_a_malformed_response(tmp_path, monkeypatch):
    import io
    import urllib.request

    def unavailable(*args, **kwargs):
        return io.BytesIO(b"<html>Service unavailable</html>")

    monkeypatch.setattr(urllib.request, "urlopen", unavailable)
    with pytest.raises(ValueError):
        fetch_bfile("A000045", cache_dir=tmp_path)
    assert not os.listdir(tmp_path)


def test_import_does_not_load_urllib_request():
    # Only fetch_bfile needs urllib.request; importing it eagerly would
    # add its cost to every command's start-up.
    src = os.path.dirname(os.path.dirname(btriangles.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys, btriangles; print('urllib.request' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_cache_dir_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("BERNOULLI_CACHE_DIR", str(tmp_path))
    (tmp_path / "b000930.txt").write_text("0 1\n1 1\n2 1\n3 2\n")
    bf = fetch_bfile("A000930")
    assert bf.values() == (1, 1, 1, 2)


def test_malformed_id_rejected():
    with pytest.raises(ValueError):
        load_snapshot("bogus")
    with pytest.raises(ValueError):
        fetch_bfile("A12")


def test_snapshot_headers_carry_provenance():
    from importlib import resources

    for oeis_id in ALL_IDS:
        path = resources.files("btriangles") / "data" / "bfiles" / f"{oeis_id}.txt"
        head = path.read_text().splitlines()[:2]
        assert head[0].startswith("#")
        assert "rule:" in head[1]


def test_snapshots_rebuild_byte_identical_from_the_script(tmp_path):
    # The snapshots claim to be reproducible from the generator script alone.
    script = Path(__file__).resolve().parents[1] / "tools" / "make_bfile_snapshots.py"
    subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path)],
        check=True,
        capture_output=True,
    )
    bundled = Path(btriangles.__file__).parent / "data" / "bfiles"
    names = sorted(path.name for path in bundled.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name


def test_crosscheck_online_flag_reads_cache(tmp_path):
    # online=True with a warm cache must not require networking.
    snap = load_snapshot("A000045")
    body = "".join(f"{i} {v}\n" for i, v in snap.entries)
    (tmp_path / "b000045.txt").write_text(body)
    report = crosscheck("A000045", 30, cache_dir=tmp_path, online=True)
    assert report.ok


def test_fetch_rejects_corrupt_cached_file(tmp_path):
    (tmp_path / "b000045.txt").write_text("0 zero\n")
    with pytest.raises(ValueError):
        fetch_bfile("A000045", cache_dir=tmp_path)


def test_export_rejects_unknown_id(tmp_path):
    with pytest.raises(KeyError):
        export_bfile("A999999", 5, tmp_path / "x.txt")


def test_environment_variable_not_required(monkeypatch, tmp_path):
    # Default cache dir resolution must not touch the environment key.
    monkeypatch.delenv("BERNOULLI_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sub = tmp_path / "btriangles"
    sub.mkdir()
    (sub / "b000045.txt").write_text("0 0\n1 1\n")
    assert fetch_bfile("A000045").values() == (0, 1)


def test_offline_default_ignores_cache_dir(tmp_path):
    # Snapshot route must not read or create anything under cache_dir.
    report = crosscheck("A099568", 30, cache_dir=tmp_path)
    assert report.ok
    assert not os.listdir(tmp_path)
