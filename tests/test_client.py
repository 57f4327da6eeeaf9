"""Model client tests: mock policies, caching, retry/backoff, thread
safety, and the environment-only API key rule."""

import json
import os
import re
import sys
import threading
import time
from types import SimpleNamespace

import pytest
import requests
from conftest import assert_kept

from iealign.client import (
    LiveClient,
    MockClient,
    ResponseCache,
    TransportError,
    make_client,
    params_digest,
)
from iealign.errors import ConfigurationError, DataError


def test_cache_keys_are_pinned(monkeypatch):
    """Cache keys stay what earlier versions wrote, so existing entries stay
    hits; an int temperature hashes as written."""
    monkeypatch.setenv("IEALIGN_API_KEY", "k")
    assert (MockClient(policy="noisy_gold:0.6", seed=6)._cache_key("p", 1.0, 3)
            == "mock-c7ae82169d89c41c-148de9c5a7a44d19e56cd9ae-9b6454bf52788f4b-3")
    assert (LiveClient("http://e", "m")._cache_key("p", 0.7, 0)
            == "live-bae42e3e5c29274b-148de9c5a7a44d19e56cd9ae-8efb0c87f9dbeb23-0")
    assert params_digest(1) == "dd50f305194ab6d1"
    assert params_digest(1) != params_digest(1.0)


# ---------------------------------------------------------------------------
# Mock policies


def test_echo_gold_policy():
    client = MockClient(policy="echo_gold")
    assert client.complete("prompt", 0.7, reference="the gold answer") == "the gold answer"


def test_mock_request_without_reference_is_a_data_error():
    """A request without a reference is a DataError naming the policy."""
    for policy in ("echo_gold", "noisy_gold:0.5"):
        with pytest.raises(DataError, match=re.escape(repr(policy))):
            MockClient(policy=policy).complete("unknown prompt", 0.7)


def test_fixed_policy():
    client = MockClient(policy="fixed:hello there")
    assert client.complete("anything", 0.7) == "hello there"


def test_unknown_policy_rejected():
    with pytest.raises(ConfigurationError):
        MockClient(policy="bogus").complete("p", 0.7)


def test_noisy_gold_zero_is_identity():
    client = MockClient(policy="noisy_gold:0")
    gold = "alpha beta gamma"
    assert [client.complete("p", 0.7, i, reference=gold) for i in range(5)] == [gold] * 5


def test_noisy_gold_corruption_rate_near_p():
    gold = " ".join(f"tok{i}" for i in range(1000))
    client = MockClient(policy="noisy_gold:0.5", seed=1)
    out = client.complete("p", 0.7, reference=gold).split()
    corrupted = sum(1 for a, b in zip(gold.split(), out) if a != b)
    assert abs(corrupted / 1000 - 0.5) < 0.05


def test_noisy_gold_deterministic_per_index():
    client1 = MockClient(policy="noisy_gold:0.5", seed=2)
    client2 = MockClient(policy="noisy_gold:0.5", seed=2)
    gold = "one two three four five six"
    a = [client1.complete("p", 0.7, i, reference=gold) for i in range(5)]
    b = [client2.complete("p", 0.7, i, reference=gold) for i in range(5)]
    assert a == b
    assert len(set(a)) > 1  # indexes draw independent corruption


# ---------------------------------------------------------------------------
# Cache


def test_cache_roundtrip_and_call_counter(tmp_path):
    cache = ResponseCache(str(tmp_path))
    client = MockClient(policy="fixed:x", cache=cache)
    assert client.complete("p", 0.7) == "x"
    assert client.call_count == 1
    assert client.complete("p", 0.7) == "x"
    assert client.call_count == 1  # served from cache

    fresh = MockClient(policy="fixed:x", cache=ResponseCache(str(tmp_path)))
    assert fresh.complete("p", 0.7) == "x"
    assert fresh.call_count == 0  # cache survives across client instances


def test_cache_put_is_atomic_with_umask_mode(tmp_path, umask):
    cache = ResponseCache(str(tmp_path))
    cache.put("k", "first")
    entry = tmp_path / "k.json"
    assert os.stat(entry).st_mode & 0o777 == umask
    previous = entry.read_bytes()
    with pytest.raises(DataError, match="cannot write"):
        cache.put("k", "lone surrogate \ud800")  # fails while the entry is written
    assert_kept(entry, previous)
    assert cache.get("k") == "first"


@pytest.mark.parametrize("content", [b'{"text": "x"', b"{}", b"\xff\xfe", b'{"text": 5}'])
def test_corrupt_cache_entry_is_a_miss(tmp_path, caplog, content):
    cache = ResponseCache(str(tmp_path))
    client = MockClient(policy="fixed:fresh", cache=cache)
    entry = tmp_path / f"{client._cache_key('p', 0.7, 0)}.json"
    entry.write_bytes(content)
    with caplog.at_level("WARNING", logger="iealign.client"):
        assert client.complete("p", 0.7) == "fresh"
    assert "ignoring corrupt cache entry" in caplog.text
    assert client.call_count == 1
    assert json.loads(entry.read_text(encoding="utf-8")) == {"text": "fresh"}  # overwritten
    assert list(tmp_path.iterdir()) == [entry]


def test_cache_distinguishes_params_and_index(tmp_path):
    cache = ResponseCache(str(tmp_path))
    client = MockClient(policy="fixed:x", cache=cache)
    client.complete("p", 0.7)
    client.complete("p", 1.0)
    client.complete("p", 1.0, index=1)
    assert client.call_count == 3


def test_shared_cache_keeps_backends_apart(tmp_path, monkeypatch):
    """Clients that answer differently never read each other's entries."""
    cache = ResponseCache(str(tmp_path))
    assert MockClient(policy="fixed:A", cache=cache).complete("p", 0.7) == "A"
    assert MockClient(policy="fixed:B", cache=cache).complete("p", 0.7) == "B"
    assert MockClient(policy="fixed:A", cache=cache).complete("p", 0.7) == "A"
    assert len(list(tmp_path.iterdir())) == 2

    monkeypatch.setenv("IEALIGN_API_KEY", "k")
    clients = [
        MockClient(policy="noisy_gold:0.5", seed=0),
        MockClient(policy="noisy_gold:0.5", seed=1),
        MockClient(policy="fixed:A", seed=0),
        LiveClient("http://a/v1", "m1", session=object()),
        LiveClient("http://b/v1", "m1", session=object()),
        LiveClient("http://a/v1", "m2", session=object()),
    ]
    keys = {c._cache_key("p", 0.7, 0) for c in clients}
    assert len(keys) == len(clients)


# ---------------------------------------------------------------------------
# Live client


def test_live_client_requires_api_key_env(monkeypatch):
    monkeypatch.delenv("IEALIGN_API_KEY", raising=False)
    with pytest.raises(ConfigurationError, match="IEALIGN_API_KEY"):
        LiveClient(endpoint="https://example.invalid/v1", model="m")


class _FakeResponse:
    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.headers = headers or {}

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"HTTP {self.status_code}")

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def _ok(text):
    return _FakeResponse(200, {"choices": [{"message": {"content": text}}]})


def test_live_client_pools_one_connection_per_worker(monkeypatch):
    """The session a live client builds keeps up to `workers` connections
    per host, for http and https alike."""
    monkeypatch.setenv("IEALIGN_API_KEY", "test-key")
    client = LiveClient(endpoint="https://example.invalid/v1", model="m")
    for url in ("http://example.invalid/v1", "https://example.invalid/v1"):
        adapter = client.session.get_adapter(url)
        assert adapter.poolmanager.connection_pool_kw["maxsize"] == LiveClient.workers


def test_live_client_retries_transient_then_succeeds(monkeypatch):
    monkeypatch.setenv("IEALIGN_API_KEY", "test-key")
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = _FakeSession([_FakeResponse(429), _FakeResponse(503), _ok("done")])
    client = LiveClient(endpoint="https://example.invalid/v1", model="m", qps=0, session=session)
    assert client.complete("p", 0.7) == "done"
    assert session.calls == 3


def test_live_client_never_sends_the_reference(monkeypatch):
    """A reference leaves the posted body as it is."""
    monkeypatch.setenv("IEALIGN_API_KEY", "test-key")
    bodies = []

    def post(url, json=None, headers=None, timeout=None):
        bodies.append(json)
        return _ok("x")

    client = LiveClient(endpoint="https://example.invalid/v1", model="m", qps=0,
                        session=SimpleNamespace(post=post))
    client.complete("p", 1.0, 2)
    client.complete("p", 1.0, 2, reference="the gold answer")
    assert bodies[0] == bodies[1] == {
        "model": "m", "messages": [{"role": "user", "content": "p"}], "temperature": 1.0, "max_tokens": 1024,
    }


def test_live_client_exhausts_retries(monkeypatch):
    monkeypatch.setenv("IEALIGN_API_KEY", "test-key")
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = _FakeSession([_FakeResponse(500)] * 5)
    client = LiveClient(endpoint="https://example.invalid/v1", model="m", qps=0, session=session)
    with pytest.raises(TransportError, match="exhausted"):
        client.complete("p", 0.7)


@pytest.mark.parametrize("responses,posts,sleeps,text", [
    ([_FakeResponse(500)] * 5, 5, [1.0, 2.0, 4.0, 8.0], None),  # no sleep after the last attempt
    ([requests.ConnectionError("reset"), requests.Timeout("slow"), _ok("done")], 3, [1.0, 2.0], "done"),
    ([_FakeResponse(401)], 1, [], None),
    ([_FakeResponse(200, {"error": "no choices"})], 1, [], None),
    ([_FakeResponse(200, {"choices": [{"message": {"content": None}}]})], 1, [], None),
    ([_FakeResponse(200, ["not", "an", "object"])], 1, [], None),
    ([requests.exceptions.InvalidURL("bad url")], 1, [], None),
    # Retry-After in whole seconds replaces that one wait, capped at 30 s
    ([_FakeResponse(429, headers={"Retry-After": "3"}), _FakeResponse(503, headers={"Retry-After": "120"}),
      _FakeResponse(500), _ok("done")], 4, [3.0, 30.0, 4.0], "done"),
    ([_FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
      _FakeResponse(503, headers={"Retry-After": "1.5"}), _ok("done")], 3, [1.0, 2.0], "done"),
])
def test_live_client_retries_only_transient_failures(monkeypatch, responses, posts, sleeps, text):
    """Only a 429, a 5xx, a connection error or a timeout is retried; any
    other failure is a TransportError after one post and no sleep."""
    monkeypatch.setenv("IEALIGN_API_KEY", "test-key")
    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    session = _FakeSession(responses)
    client = LiveClient(endpoint="https://example.invalid/v1", model="m", qps=0, session=session)
    if text is None:
        with pytest.raises(TransportError):
            client.complete("p", 0.7)
    else:
        assert client.complete("p", 0.7) == text
    assert session.calls == posts
    assert slept == sleeps


def test_live_client_counts_every_generation_across_threads(monkeypatch):
    """call_count stays exact when many threads complete at once."""
    monkeypatch.setenv("IEALIGN_API_KEY", "test-key")
    session = SimpleNamespace(post=lambda url, json=None, headers=None, timeout=None: _ok("x"))
    client = LiveClient(endpoint="https://example.invalid/v1", model="m", qps=0, session=session)

    def run(t):
        for i in range(200):
            client.complete(f"p{t}", 0.7, index=i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert client.call_count == 8 * 200


# ---------------------------------------------------------------------------
# The worker pool


def _pool_client(workers):
    client = MockClient()
    client.workers = workers
    return client


@pytest.mark.parametrize("workers", [1, 4])
def test_map_prompts_keeps_input_order_and_runs_a_prompt_on_one_thread(workers):
    """Results come back in input order, though jobs of uneven length finish
    out of order; the jobs that share a prompt run in input order on one
    thread; at 1 worker every job runs on the caller's thread."""
    jobs = [(f"p{k % 5}", k) for k in range(40)]  # 5 prompts, 8 jobs each
    ran = []  # (prompt, job number, thread), in the order the jobs ran
    lock = threading.Lock()

    def fn(job):
        time.sleep(0.001 * (job[1] % 3))
        with lock:
            ran.append((job[0], job[1], threading.get_ident()))
        return job[1] * 10

    results = list(_pool_client(workers).map_prompts(fn, jobs, lambda job: job[0]))
    assert results == [k * 10 for k in range(40)]
    for prompt in {p for p, _ in jobs}:
        assert [k for p, k, _ in ran if p == prompt] == [k for p, k in jobs if p == prompt]
        assert len({ident for p, _, ident in ran if p == prompt}) == 1
    threads = {ident for _, _, ident in ran}
    if workers == 1:
        assert threads == {threading.get_ident()}
    else:
        assert threading.get_ident() not in threads and len(threads) <= workers


@pytest.mark.parametrize("workers", [1, 4])
def test_map_prompts_first_exception_stops_queued_jobs(workers):
    """The first exception is raised once the jobs already started finish:
    the queued jobs never start, the results before it come in input order,
    and no worker thread outlives the call."""
    started = []
    lock = threading.Lock()

    def fn(k):
        with lock:
            started.append(k)
        if k == 5:
            raise ValueError("job 5 failed")
        time.sleep(0.002)
        return k

    before = threading.active_count()
    results = []
    with pytest.raises(ValueError, match="job 5 failed"):
        for result in _pool_client(workers).map_prompts(fn, range(100), str):
            results.append(result)
    assert results == list(range(len(results))) and len(results) <= 5
    assert 5 in started and len(started) <= 6 + workers
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# Factory


def test_make_client_mock(tmp_path):
    client = make_client({"kind": "mock", "policy": "fixed:y"}, cache_dir=str(tmp_path / "c"))
    assert client.complete("p", 0.7) == "y"


@pytest.mark.parametrize("qps,message", [
    (-1, "qps must be a number >= 0, got -1"),
    ("fast", "qps must be a number >= 0, got 'fast'"),
    (True, "qps must be a number >= 0, got True"),
    (float("nan"), "qps must be a number >= 0, got nan"),
])
def test_make_client_rejects_bad_qps(monkeypatch, qps, message):
    monkeypatch.setenv("IEALIGN_API_KEY", "k")
    config = {"kind": "live", "endpoint": "http://a/v1", "model": "m", "qps": qps}
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        make_client(config, None)


def test_make_client_live_qps_not_in_cache_key(monkeypatch):
    """qps stays out of the cache key: no completion depends on it. The live
    client samples on 32 workers, the mock on the caller's thread."""
    monkeypatch.setenv("IEALIGN_API_KEY", "k")
    base = {"kind": "live", "endpoint": "http://a/v1", "model": "m"}
    clients = [make_client(base, None), make_client({**base, "qps": 0}, None), make_client({**base, "qps": 2.5}, None)]
    assert len({c._cache_key("p", 0.7, 0) for c in clients}) == 1
    assert clients[0].workers == 32
    assert MockClient().workers == 1
