import json
import threading
import time

import pytest

from logicaltex.arxiv import (
    MIN_REQUEST_INTERVAL,
    ArxivClient,
    CacheError,
    FeedParseError,
    InvalidIdError,
    NotFoundError,
    TransportError,
    is_valid_id,
    parse_feed,
)
from logicaltex.model import Metadata

from conftest import ARXIV_CACHE, FIXTURES


@pytest.mark.parametrize("identifier", [
    "2301.01234", "2301.01234v2", "0704.0001", "2407.02222",
    "9901001", "hep-th/9901001", "math.GT/0309136", "cond-mat/0001001v1",
])
def test_valid_ids(identifier):
    assert is_valid_id(identifier)


@pytest.mark.parametrize("identifier", [
    "abc", "", "123", "23.01234", "2301.123", "hep-th/99", "2301_01234",
])
def test_invalid_ids(identifier):
    assert not is_valid_id(identifier)


def _record(i=0) -> tuple[str, Metadata]:
    return f"2401.{10000 + i:05d}", Metadata(
        title=f"Record number {i}",
        authors=["Ann Author", f"Person {i}"],
        abstract="Some abstract text.",
    )


def test_cache_put_get_roundtrip(tmp_path):
    client = ArxivClient(tmp_path, offline=True)
    identifier, rec = _record()
    client.cache_put(identifier, rec)
    assert client.cache_get(identifier) == rec


def test_cache_keeps_each_authors_affiliations(tmp_path):
    client = ArxivClient(tmp_path, offline=True)
    rec = Metadata("A Title", [("Ann Author", ["First Institute", "Second Lab"]),
                               ("Bo Chen", [])], "An abstract.")
    client.cache_put("2401.10000", rec)
    again = client.cache_get("2401.10000")
    assert again == rec
    assert again.authors == [("Ann Author", ["First Institute", "Second Lab"]), ("Bo Chen", [])]
    on_disk = json.loads(client._cache_path("2401.10000").read_text(encoding="utf-8"))
    assert on_disk["id"] == "2401.10000" and on_disk["fetched_at"] > 0


@pytest.mark.parametrize("path", sorted(ARXIV_CACHE.glob("*.json")), ids=lambda p: p.name)
def test_cached_fixture_reads_its_names_title_and_abstract(path):
    # A fixture lists each author as a bare name, with a flat affiliations
    # list beside them that the record does not read.
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    rec = ArxivClient(ARXIV_CACHE, offline=True).cache_get(on_disk["id"])
    assert (rec.title, rec.abstract) == (on_disk["title"], on_disk["abstract"])
    assert rec.authors == [(name, []) for name in on_disk["authors"]]


def test_cache_get_empty(tmp_path):
    client = ArxivClient(tmp_path, offline=True)
    assert client.cache_get("2401.10000") is None


def test_cache_thousand_records(tmp_path):
    client = ArxivClient(tmp_path, offline=True)
    records = [_record(i) for i in range(1000)]
    for identifier, rec in records:
        client.cache_put(identifier, rec)
    for identifier, rec in records:
        assert client.cache_get(identifier) == rec


def test_cache_survives_new_client(tmp_path):
    ArxivClient(tmp_path, offline=True).cache_put(*_record())
    again = ArxivClient(tmp_path, offline=True)
    identifier, rec = _record()
    assert again.cache_get(identifier) == rec


def test_cache_error_is_distinct(tmp_path):
    client = ArxivClient(tmp_path, offline=True)
    path = client._cache_path("2401.10000")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CacheError):
        client.cache_get("2401.10000")


@pytest.mark.parametrize("text", ["[]", "3", '"2401.10000"', '{"id": "x", "title": "t", "authors": 5}'])
def test_cache_record_of_the_wrong_shape_is_a_cache_error(tmp_path, text):
    client = ArxivClient(tmp_path, offline=True)
    client._cache_path("2401.10000").write_text(text, encoding="utf-8")
    with pytest.raises(CacheError):
        client.cache_get("2401.10000")


def test_fetch_rejects_malformed_id_before_network(tmp_path):
    calls = []

    def transport(url):
        calls.append(url)
        return b""

    client = ArxivClient(tmp_path, transport=transport)
    with pytest.raises(InvalidIdError):
        client.fetch("abc")
    assert calls == []


def test_fetch_cache_hit_makes_no_network_call(tmp_path):
    def transport(url):  # pragma: no cover - must never run
        raise AssertionError("live call attempted")

    client = ArxivClient(ARXIV_CACHE, transport=transport)
    rec = client.fetch("2401.01234")
    assert rec.title == "Mixing Times of Quantum Walks on Sparse Graphs"
    assert rec.authors == [("Helena Varga", [])]
    old = client.fetch("hep-th/9901001")
    assert old.authors == [("Nora Lindqvist", [])]


def test_fetch_offline_miss_is_transport_error(tmp_path):
    client = ArxivClient(tmp_path, offline=True)
    with pytest.raises(TransportError):
        client.fetch("2401.99999")


def test_fetch_parses_feed_and_caches(tmp_path):
    feed = (FIXTURES / "atom_feed_2407.02222.xml").read_bytes()
    calls = []

    def transport(url):
        calls.append(url)
        return feed

    client = ArxivClient(tmp_path, base_url="https://example.test/api/query",
                         min_interval=0.0, transport=transport)
    rec = client.fetch("2407.02222")
    assert calls == ["https://example.test/api/query?id_list=2407.02222"]
    assert rec.title == "Temporal Stability of the Leaf Microbiome under Drought Stress"
    # Each author keeps their own affiliations.
    assert rec.authors == [("Lucía Fernández", ["Department of Biology, Riverton State University"]),
                           ("Tomáš Novák", [])]
    assert rec.abstract.startswith("We tracked the phyllosphere")
    assert "\n" not in rec.title
    # cached now: second fetch is served locally
    rec2 = client.fetch("2407.02222")
    assert len(calls) == 1
    assert rec2 == rec
    on_disk = json.loads((tmp_path / "2407.02222.json").read_text())
    assert on_disk["authors"][0] == {
        "name": "Lucía Fernández",
        "affiliations": ["Department of Biology, Riverton State University"]}


def test_fetch_not_found_on_empty_feed(tmp_path):
    feed = (FIXTURES / "atom_feed_empty.xml").read_bytes()
    client = ArxivClient(tmp_path, min_interval=0.0, transport=lambda url: feed)
    with pytest.raises(NotFoundError):
        client.fetch("2401.77777")


def test_fetch_parse_error_on_garbage(tmp_path):
    client = ArxivClient(tmp_path, min_interval=0.0,
                         transport=lambda url: b"this is not xml <")
    with pytest.raises(FeedParseError):
        client.fetch("2401.77778")


def test_fetch_transport_error_propagates(tmp_path):
    def transport(url):
        raise TransportError("boom")

    client = ArxivClient(tmp_path, min_interval=0.0, transport=transport)
    with pytest.raises(TransportError):
        client.fetch("2401.77779")
    assert client.cache_get("2401.77779") is None


def test_parse_feed_error_title_is_not_found():
    feed = b"""<?xml version="1.0"?>
<feed xmlns="http://www.w3.org/2005/Atom">
 <entry><title>Error</title><summary>bad id</summary></entry>
</feed>"""
    with pytest.raises(NotFoundError):
        parse_feed(feed, "0000.00000")


def test_default_rate_limit_interval():
    assert MIN_REQUEST_INTERVAL == 3.0
    assert ArxivClient("/tmp/x")._gate.interval == 3.0


def test_rate_gate_spaces_and_serializes_requests(tmp_path):
    stamps = []
    lock = threading.Lock()

    def transport(url):
        with lock:
            stamps.append(time.monotonic())
        return (FIXTURES / "atom_feed_2407.02222.xml").read_bytes()

    client = ArxivClient(tmp_path, min_interval=0.15, transport=transport)

    def fetch(i):
        # distinct uncached ids force live requests
        try:
            client.fetch(f"2402.1000{i}")
        except NotFoundError:
            pass

    threads = [threading.Thread(target=fetch, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stamps.sort()
    assert len(stamps) == 3
    for a, b in zip(stamps, stamps[1:]):
        assert b - a >= 0.14, stamps


def test_default_transport_maps_url_errors(tmp_path, monkeypatch):
    import urllib.error
    import urllib.request

    def urlopen(url, timeout):
        raise urllib.error.URLError("unreachable")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    client = ArxivClient(tmp_path, min_interval=0.0)
    with pytest.raises(TransportError):
        client.fetch("2401.77780")
