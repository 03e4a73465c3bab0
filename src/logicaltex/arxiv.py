"""Fetch and cache archive metadata records used as conversion ground truth.

Live requests go through a single rate-limited gate (one request at a
time, minimum spacing between requests); everything else is served from a
plain-file cache that is easy to inspect and to pre-seed for offline
test runs.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import time
from pathlib import Path

from .model import Metadata, MetadataError, collapse_blanks

DEFAULT_BASE_URL = "https://export.arxiv.org/api/query"
MIN_REQUEST_INTERVAL = 3.0  # seconds between live requests (API etiquette)

_NEW_ID = re.compile(r"^\d{4}\.\d{4,5}(v\d+)?$")
_OLD_ID = re.compile(r"^(?:[a-z-]+(?:\.[A-Z]{2})?/)?\d{7}(v\d+)?$")

_ATOM = "{http://www.w3.org/2005/Atom}"
_ARXIV = "{http://arxiv.org/schemas/atom}"


class ArxivError(Exception):
    pass


class InvalidIdError(ArxivError):
    pass


class NotFoundError(ArxivError):
    pass


class TransportError(ArxivError):
    pass


class FeedParseError(ArxivError):
    pass


class CacheError(ArxivError):
    pass


def is_valid_id(identifier: str) -> bool:
    """Both identifier grammars: 7-digit old form (with optional archive
    prefix) and the newer YYMM.NNNNN form."""
    return bool(_NEW_ID.match(identifier) or _OLD_ID.match(identifier))


def _squash(text: str | None) -> str:
    return collapse_blanks(text or "")


def parse_feed(data: bytes, identifier: str) -> Metadata:
    """Pull the title, each author with their own affiliations and the
    summary out of an Atom query feed."""
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise FeedParseError(f"malformed feed for {identifier}: {exc}") from exc
    entries = root.findall(f"{_ATOM}entry")
    if not entries:
        raise NotFoundError(f"no entry for {identifier}")
    entry = entries[0]
    title = _squash(entry.findtext(f"{_ATOM}title"))
    if title == "Error" or not title:
        raise NotFoundError(f"identifier {identifier} unknown to the API")
    authors = []
    for person in entry.findall(f"{_ATOM}author"):
        name = _squash(person.findtext(f"{_ATOM}name"))
        if name:
            texts = [_squash(aff.text) for aff in person.findall(f"{_ARXIV}affiliation")]
            authors.append((name, [text for text in texts if text]))
    abstract = _squash(entry.findtext(f"{_ATOM}summary"))
    if not authors and not abstract:
        raise FeedParseError(f"entry for {identifier} carries no usable fields")
    return Metadata(title, authors, abstract)


def _default_transport(url: str) -> bytes:
    import urllib.request  # imported on first live request: it loads ssl

    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.read()
    except OSError as exc:  # URLError, HTTPError (4xx/5xx) and timeouts
        raise TransportError(str(exc)) from exc


class _RateGate:
    def __init__(self, interval: float):
        self.interval = interval
        self._lock = threading.Lock()
        self._last = 0.0

    def wait(self):
        with self._lock:
            now = time.monotonic()
            delay = self._last + self.interval - now
            if delay > 0:
                time.sleep(delay)
            self._last = time.monotonic()


class ArxivClient:
    """Metadata lookups with a persistent cache in front of the API.

    ``transport`` may be any callable (url) -> bytes, which keeps tests
    fully offline; ``offline=True`` forbids live requests outright.
    """

    def __init__(self, cache_dir: str | Path, base_url: str | None = None,
                 min_interval: float = MIN_REQUEST_INTERVAL,
                 transport=None, offline: bool = False):
        self.cache_dir = Path(cache_dir)
        self.base_url = base_url or os.environ.get("LOGICALTEX_ARXIV_URL", DEFAULT_BASE_URL)
        self.offline = offline
        self._transport = transport or _default_transport
        self._gate = _RateGate(min_interval)

    # -- cache --------------------------------------------------------------

    def _cache_path(self, identifier: str) -> Path:
        safe = identifier.replace("/", "_")
        return self.cache_dir / f"{safe}.json"

    def cache_get(self, identifier: str) -> Metadata | None:
        """The cached record of an identifier.  The file's identifier and
        fetch time are not part of the record.  An author listed as a bare
        name has no affiliations; a flat ``affiliations`` list, which
        older files hold, is not read."""
        path = self._cache_path(identifier)
        if not path.exists():
            return None
        try:
            return Metadata.from_json(path.read_bytes())
        except (OSError, MetadataError) as exc:
            raise CacheError(f"unreadable cache record {path}: {exc}") from exc

    def cache_put(self, identifier: str, record: Metadata) -> None:
        path = self._cache_path(identifier)
        entry = {"id": identifier, **record.to_dict(), "fetched_at": time.time()}
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, ensure_ascii=False, indent=1)
            os.replace(tmp, path)
        except OSError as exc:
            raise CacheError(f"cannot write cache record {path}: {exc}") from exc

    # -- fetch ----------------------------------------------------------------

    def fetch(self, identifier: str) -> Metadata:
        """Return the record for an identifier, from cache when possible;
        live requests are serialized and spaced."""
        if not is_valid_id(identifier):
            raise InvalidIdError(f"not an archive identifier: {identifier!r}")
        cached = self.cache_get(identifier)
        if cached is not None:
            return cached
        if self.offline:
            raise TransportError(
                f"{identifier} not cached and live requests are disabled")
        self._gate.wait()
        url = f"{self.base_url}?id_list={identifier}"
        data = self._transport(url)
        record = parse_feed(data, identifier)
        self.cache_put(identifier, record)
        return record
