"""Uniform interface to text-generation backends.

Ships a deterministic mock backend (the default for pipeline testing) and a
minimal live chat-completion client. `BaseClient.complete` is the one
generation call: a prompt, a temperature, a sample index and, optionally, the
reference answer the caller scores the completion against. Only the mock
reads the reference; it is in neither a live request nor a cache key.
Completions are cached on disk keyed by (backend identity digest, prompt
digest, params digest, sample index); cache writes are atomic so concurrent
workers cannot corrupt entries.

Both builds call through `BaseClient.map_prompts`, which runs `workers`
prompts at once: 1 for CPU-bound backends such as the mock, on the caller's
thread, and 32 for `LiveClient`, which waits on the network and keeps one
pooled connection per worker.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional, Sequence

from .errors import ConfigurationError, DataError
from .model import atomic_open, writable_as
from .seeds import derive_seed

logger = logging.getLogger(__name__)


# Attempts at one live call before it fails, the longest wait between two of
# them, and the time one attempt may take, in seconds; then the most tokens a
# live completion may hold.
MAX_ATTEMPTS = 5
MAX_BACKOFF_S = 30.0
TIMEOUT_S = 60.0
MAX_TOKENS = 1024


class TransportError(Exception):
    pass


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:24]


def params_digest(temperature: float) -> str:
    """The sampling parameters' part of a cache key. The text hashed keeps a
    `None` where a sampling seed once stood, so existing entries stay hits;
    an int temperature hashes as written (`1`, not `1.0`)."""
    return hashlib.sha256(f"{temperature}|{MAX_TOKENS}|None".encode()).hexdigest()[:16]


class ResponseCache:
    """Content-addressed completion cache in a directory, which the first
    entry put creates."""

    def __init__(self, directory: str):
        self.directory = Path(directory)
        if not writable_as("directory", self.directory):
            raise ConfigurationError(f"cache_dir {directory} is not a directory")

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[str]:
        """The cached text, or None on a miss. A corrupt entry is a miss; the
        text generated in its place overwrites it."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            text = json.loads(path.read_text(encoding="utf-8"))["text"]
            if not isinstance(text, str):
                raise TypeError(f"text is {type(text).__name__}, not a string")
        except (ValueError, KeyError, TypeError) as e:  # ValueError: bad JSON or UTF-8
            logger.warning("ignoring corrupt cache entry %s: %r", path, e)
            return None
        return text

    def put(self, key: str, text: str) -> None:
        with atomic_open(self._path(key)) as f:
            json.dump({"text": text}, f, ensure_ascii=False)


class BaseClient:
    backend_id = "base"
    workers = 1

    def __init__(self, cache: Optional[ResponseCache] = None):
        self.cache = cache  # None: neither read nor written
        self.call_count = 0  # generations actually performed (cache misses)
        self._count_lock = threading.Lock()

    def identity(self) -> tuple:
        """Everything besides the prompt and parameters that decides a
        completion, so that a shared cache never serves one backend's text
        to another."""
        return (self.backend_id,)

    def _cache_key(self, prompt: str, temperature: float, index: int) -> str:
        backend = hashlib.sha256(repr(self.identity()).encode("utf-8")).hexdigest()[:16]
        return f"{self.backend_id}-{backend}-{prompt_digest(prompt)}-{params_digest(temperature)}-{index}"

    def complete(
        self, prompt: str, temperature: float, index: int = 0, reference: Optional[str] = None
    ) -> str:
        """The cached completion, or a generated one. `reference` is the
        answer the caller scores the completion against; it stays out of the
        cache key. Safe to call from `workers` threads at once for distinct
        (prompt, index) pairs."""
        key = self._cache_key(prompt, temperature, index) if self.cache is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        text = self._generate(prompt, temperature, index, reference)
        with self._count_lock:
            self.call_count += 1
        if key is not None:
            self.cache.put(key, text)
        return text

    def _generate(self, prompt: str, temperature: float, index: int, reference: Optional[str]) -> str:
        raise NotImplementedError

    def map_prompts(self, fn: Callable, jobs: Sequence, prompt_of: Callable):
        """Yield `fn(job)` for each job, in input order. Up to `workers`
        prompts (`prompt_of(job)`) run at once, on the caller's thread at 1;
        the jobs that share one run in input order on one worker, as on one
        thread. The first exception stops the jobs not started and is raised."""
        groups = {}  # prompt digest -> positions of its jobs, in input order
        for pos, job in enumerate(jobs):
            groups.setdefault(prompt_digest(prompt_of(job)), []).append(pos)
        failed = threading.Event()

        def run(positions):
            try:
                return [(pos, fn(jobs[pos])) for pos in positions if not failed.is_set()]
            except BaseException:
                failed.set()
                raise

        done, next_pos = {}, 0
        executor = ThreadPoolExecutor(self.workers) if self.workers > 1 else None
        try:
            for results in (executor.map if executor else map)(run, groups.values()):  # by first position
                done.update(results)
                while next_pos in done:  # so every earlier position has come
                    yield done.pop(next_pos)
                    next_pos += 1
        finally:
            if executor:
                executor.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Mock backend

NOISE_VOCAB = (
    "lorem", "ipsum", "quux", "zebra", "puzzle", "random", "static", "noise",
    "filler", "blank", "arbitrary", "garble", "offbeat", "scatter", "jumble",
)


class MockClient(BaseClient):
    """Deterministic mock backend.

    Policies:
      echo_gold          return the request's reference verbatim
      fixed:<text>       always return <text>
      noisy_gold:<p>     the reference with each token independently
                         corrupted w.p. p

    Under `echo_gold` and `noisy_gold`, a request without a reference is a
    DataError naming the policy. The client holds no state besides its
    settings and its call count.
    """

    backend_id = "mock"

    def __init__(
        self,
        policy: str = "echo_gold",
        seed: int = 0,
        cache: Optional[ResponseCache] = None,
    ):
        super().__init__(cache)
        self.policy = policy
        self.noise = _noise_rate(policy)
        self.seed = seed

    def identity(self) -> tuple:
        # "NA" was the answer to a request without a reference, before such a
        # request became an error; it stays so that existing cache keys stay hits.
        return (self.backend_id, self.policy, self.seed, "NA")

    def _generate(self, prompt: str, temperature: float, index: int, reference: Optional[str]) -> str:
        if self.policy.startswith("fixed:"):
            return self.policy[len("fixed:"):]
        if reference is None:
            raise DataError(f"mock policy {self.policy!r} needs a reference, and the request has none")
        return reference if self.noise is None else self._corrupt(reference, self.noise, prompt_digest(prompt), index)

    def _corrupt(self, gold: str, p: float, digest: str, index: int) -> str:
        rng = random.Random(derive_seed(self.seed, "noisy", digest, str(index)))
        tokens = gold.split()
        out = [rng.choice(NOISE_VOCAB) if rng.random() < p else tok for tok in tokens]
        return " ".join(out)


def _noise_rate(policy) -> Optional[float]:
    """The token corruption rate of a `noisy_gold:<p>` policy, None for the
    other policies; a policy that does not parse is a ConfigurationError."""
    if policy == "echo_gold" or (isinstance(policy, str) and policy.startswith("fixed:")):
        return None
    if not (isinstance(policy, str) and policy.startswith("noisy_gold:")):
        raise ConfigurationError(f"unknown mock policy {policy!r}")
    try:
        p = float(policy[len("noisy_gold:"):])
    except ValueError:
        p = math.nan  # fails the range check
    if not 0 <= p <= 1:
        raise ConfigurationError(f"noisy_gold rate must be a number in [0, 1], got {policy!r}")
    return p


# ---------------------------------------------------------------------------
# Live backend


class LiveClient(BaseClient):
    """Minimal chat-completion HTTP client with retries and rate limiting.

    The API key comes from the environment variable named by `api_key_env`;
    it is never read from configuration files. `qps` is one limit shared by
    all `workers` threads and stays out of `identity()`: no completion
    depends on it.
    """

    backend_id = "live"
    # Live throughput is min(qps, workers / latency) calls/s; at 4 workers a
    # 2 s model latency held a 35k-call build to 2 calls/s.
    workers = 32

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "IEALIGN_API_KEY",
        qps: float = 1.0,
        cache: Optional[ResponseCache] = None,
        session=None,
    ):
        super().__init__(cache)
        if isinstance(qps, bool) or not isinstance(qps, (int, float)) or not qps >= 0:
            raise ConfigurationError(f"qps must be a number >= 0, got {qps!r}")
        api_key = os.environ.get(api_key_env)
        if not api_key:
            raise ConfigurationError(f"API key environment variable {api_key_env} is not set")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.min_interval = 1.0 / qps if qps > 0 else 0.0
        self._last_call = 0.0  # the latest reserved post time
        self._throttle_lock = threading.Lock()
        if session is None:
            import requests

            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(pool_maxsize=self.workers)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session

    def identity(self) -> tuple:
        return (self.backend_id, self.endpoint, self.model)

    def _throttle(self) -> None:
        """Reserve the next free post time, min_interval after the last one
        reserved by any worker, and sleep until it outside the lock."""
        with self._throttle_lock:
            now = time.monotonic()
            slot = max(now, self._last_call + self.min_interval)
            self._last_call = slot
        if slot > now:
            time.sleep(slot - now)

    def _generate(self, prompt: str, temperature: float, index: int, reference: Optional[str]) -> str:
        """Post the prompt; the reference is not sent. A 429, a 5xx, a
        connection error or a timeout is retried with exponential backoff,
        or after the response's `Retry-After` seconds when it gives them; any
        other failure, such as a 4xx or a body without a text completion,
        raises TransportError at once."""
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        delay = 1.0
        error = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            self._throttle()
            wait = delay
            try:
                resp = self.session.post(self.endpoint, json=body, headers=headers, timeout=TIMEOUT_S)
            except OSError as e:  # requests' exceptions are OSErrors
                if not _transient(e):
                    raise TransportError(f"live call failed: {e!r}") from e
                error = repr(e)
            else:
                if resp.status_code != 429 and resp.status_code < 500:
                    break
                error = f"HTTP {resp.status_code}"
                wait = _retry_after(resp, delay)
            if attempt < MAX_ATTEMPTS:
                logger.warning("live call failed (attempt %d/%d): %s", attempt, MAX_ATTEMPTS, error)
                time.sleep(wait)
                delay = min(delay * 2, MAX_BACKOFF_S)
        else:
            raise TransportError(f"exhausted {MAX_ATTEMPTS} retries: {error}")
        try:
            resp.raise_for_status()
            text = resp.json()["choices"][0]["message"]["content"]
        except (OSError, ValueError, LookupError, TypeError) as e:  # HTTPError is an OSError; ValueError: not JSON
            raise TransportError(f"live call failed: {e!r}") from e
        if not isinstance(text, str):
            raise TransportError(f"live call failed: completion is {type(text).__name__}, not a string")
        return text


def _retry_after(resp, default: float) -> float:
    """The response's `Retry-After` when it is a whole number of seconds,
    capped at MAX_BACKOFF_S; `default` otherwise (an HTTP date, say)."""
    value = resp.headers.get("Retry-After", "").strip()
    return min(float(value), MAX_BACKOFF_S) if value.isdecimal() else default


def _transient(error: OSError) -> bool:
    # Imported on a failure only: a client given another session, as in the
    # benchmark, never loads requests.
    import requests

    return isinstance(error, (requests.ConnectionError, requests.Timeout))


# The kinds of `backend:`; a kind's keys are `kind` and its client's parameters.
BACKENDS = {"mock": MockClient, "live": LiveClient}


def make_client(config: dict, cache_dir: Optional[str]) -> BaseClient:
    """Build a client from a backend config, {kind: mock|live, ...}, whose
    keys and their types the caller has checked; each client checks the
    ranges of its own settings."""
    settings = {k: v for k, v in config.items() if k != "kind"}
    return BACKENDS[config["kind"]](**settings, cache=ResponseCache(cache_dir) if cache_dir else None)
