"""lucene_ray benchmark: ingest a seeded web-text corpus, then serve a query log.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search_tail --seed 7 --seconds 15 --trace 0

Every run starts a fresh local Ray session (``num_cpus=1``) under ``.pb/``
in the repository root and removes that directory at the end. It
generates the corpus and query logs from ``--seed`` (perfbench/corpus.py),
then:

1. ingest: ``build_index_by_file(extract_html=True)`` and the ``build_index``
   shuffle path over the same two Parquet files, once each (their rates are
   per-layer metrics of the traced run);
2. set-up: open ``IndexSearcher`` on the by-file index and run one query,
   several times (the median is ``setup_s``; Ray start-up is excluded);
3. the first 1,000 queries of the workload's log, untimed (caches fill),
   then a closed loop, one client, over the rest of the log for
   ``--seconds`` seconds;
4. correctness checks (outside the timed parts): collection statistics
   and the term dictionary equal the generator's counts, every segment of
   the searched index passes ``check_segment``,
   WAND and exhaustive top-k agree exactly, a sample of term and boolean
   queries matches a brute-force BM25 over the generated tokens.

Workloads differ in their query log: ``search_hot`` repeats a small pool of
term and 2-term AND/OR queries over hot terms (per-segment caches hit);
``search_tail`` runs distinct queries over mid and rare terms, phrases,
prefixes and 3-term WAND ORs (caches miss).

``--trace 1`` runs the traced variant instead (same for both workloads):
both builds, timed, a merge attempt, both query logs and one
``search_distributed`` batch, with spans around each layer's public
functions (perfbench/trace.py), and reports build rates, per-layer self
times, counts and the tracing overhead.

Set-up and query times are reported at nominal machine speed: each timed
piece of that work runs between two timings of a fixed probe (see "machine
speed" below).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A stage that raises is counted as failed, its reason goes to standard error,
and the run goes on with what it can still measure.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".pb")  # everything a run writes; removed at its end

N_DOCS = 1600
N_FILES = 2
SETUP_REPEATS = 15
WARMUP_QUERIES = 1000
MIN_TIMED_QUERIES = 1000  # so that p99 has 10 queries beyond it
K = 10
HOT_LOG_LEN = 60_000
TAIL_LOG_LEN = 30_000
WAND_CHECKS = 120
ORACLE_CHECKS = {"term": 12, "and": 6, "or": 6, "or3": 6}
TRACE_QUERIES = {"hot": 2000, "tail": 500}
BATCH_QUERIES = 300
OBJECT_STORE_BYTES = 256 << 20

# Set before Ray starts, so its processes inherit them: no usage reports
# (no network), and no memory monitor killing workers because of what
# other tenants of a shared host use (the kernel still guards memory).
RAY_ENV = {"RAY_USAGE_STATS_ENABLED": "0", "RAY_memory_monitor_refresh_ms": "0"}

WORKLOADS = ("search_hot", "search_tail")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@contextlib.contextmanager
def phase(name: str):
    """Log a phase's wall time to standard error (never a metric)."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        log(f"phase {name}: {time.perf_counter() - t0:.2f} s")


class Run:
    """Operation and check accounting, plus the metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def stage(self, name: str, fn, *args, **kwargs):
        """Run one operation; a raise is a counted failure, not an abort.
        Returns (result, seconds); result is None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            log(f"FAILED {name}:\n{traceback.format_exc()}")
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED {name}: {detail}")

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


# ------------------------------------------------------------ Ray session

def _ray_temp_dir() -> str:
    """Ray binds Unix sockets at <temp>/session_<date>_<pid>/sockets/..., and
    such a path must fit in 107 bytes, which a deep checkout's does not. The
    session therefore lives in .pb/ of the checkout but is named through
    /proc/self/cwd: every Ray process is started from the checkout root and
    none changes directory, so each resolves it to the same place, and the
    path stays short at any depth. The driver's pid keeps it unique."""
    return f"/proc/self/cwd/{os.path.relpath(RUN_DIR, ROOT)}/ray-{os.getpid()}"


def _session_pids(marker: str) -> list[int]:
    pids = []
    for p in glob.glob("/proc/[0-9]*/cmdline"):
        pid = int(p.split("/")[2])
        if pid == os.getpid():
            continue
        try:
            with open(p, "rb") as f:
                if marker.encode() in f.read():
                    pids.append(pid)
        except OSError:
            pass
    return pids


def _reap(marker: str, timeout: float = 20.0) -> None:
    """Wait for every process of this Ray session to end; kill stragglers."""
    deadline = time.time() + timeout
    while _session_pids(marker) and time.time() < deadline:
        time.sleep(0.2)
    for pid in _session_pids(marker):
        with contextlib.suppress(OSError):
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                log(f"killing straggler {pid}: {f.read()[:80]!r}")
            os.kill(pid, signal.SIGKILL)
    deadline = time.time() + 5
    while _session_pids(marker) and time.time() < deadline:
        time.sleep(0.1)


@contextlib.contextmanager
def ray_session(trace_dir: str | None = None):
    import ray

    from perfbench.trace import TRACE_DIR_ENV

    temp = _ray_temp_dir()
    real_temp = os.path.join(RUN_DIR, os.path.basename(temp))
    shutil.rmtree(real_temp, ignore_errors=True)
    os.makedirs(real_temp)
    # workers do not inherit the driver's sys.path: ship the import path
    env = {"PYTHONPATH": os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH", "")) if p)}
    runtime_env = {"env_vars": env}
    if trace_dir:
        env[TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = "perfbench.trace.install_worker"
    try:
        with phase("ray start"):
            # "local": never join a cluster that RAY_ADDRESS or a running
            # instance points at
            ray.init(address="local", num_cpus=1, object_store_memory=OBJECT_STORE_BYTES,
                     include_dashboard=False, logging_level="ERROR", log_to_driver=False,
                     _temp_dir=temp, runtime_env=runtime_env)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        yield
    finally:
        with phase("ray shutdown"):
            ray.shutdown()
            _reap(temp)
            shutil.rmtree(real_temp, ignore_errors=True)


def warm_workers() -> None:
    """Start the worker process, import the build, merge and Ray Data code
    in it, and run one tiny Ray Data groupby, so the first timed build does
    not pay for any of these."""
    import ray
    import ray.data

    @ray.remote(num_cpus=1)
    def _warm() -> None:
        import lucene_ray.pipelines.index_pipeline  # noqa: F401
        import lucene_ray.sources.corpus  # noqa: F401
        import lucene_ray.state.merge  # noqa: F401
        import ray.data  # noqa: F401

    ray.get(_warm.remote())
    # the first Ray Data shuffle in a session pays a one-off start-up cost
    ds = ray.data.from_items([{"k": i % 2} for i in range(4)])
    ds.groupby("k").map_groups(lambda g: g, batch_format="pyarrow").take_all()


# ------------------------------------------------------------ phases

def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


BUILD_COLUMNS = ["url", "html", "text"]  # text rides along: extraction checks it


def build_by_file(src: str, idx: str):
    from lucene_ray.pipelines.index_pipeline import build_index_by_file

    return build_index_by_file(src, idx, key_col="url", text_col="text",
                               extract_html=True, columns=BUILD_COLUMNS)


def build_shuffle(src: str, idx: str):
    from lucene_ray.pipelines.index_pipeline import build_index

    return build_index(src, idx, key_col="url", text_col="text", extract_html=True,
                       columns=BUILD_COLUMNS, num_partitions=N_FILES)


def check_index(run: Run, name: str, idx: str, corpus, check_segments: bool = True) -> None:
    """Collection statistics and the global term dictionary (term, df, ttf)
    equal the generator's own counts; ``check_segment`` passes on every
    segment."""
    import numpy as np
    import pyarrow.parquet as pq

    from lucene_ray.state.manifest import Manifest
    from lucene_ray.state.segment import check_segment

    m = Manifest.load(idx)
    cs = m.collection_stats()
    run.check(f"{name}.max_doc", cs.max_doc == corpus.n_docs,
              f"{cs.max_doc} != {corpus.n_docs}")
    run.check(f"{name}.sum_total_term_freq", cs.sum_total_term_freq == corpus.n_tokens,
              f"{cs.sum_total_term_freq} != {corpus.n_tokens}")
    ts = pq.read_table(os.path.join(idx, f"term_stats-{m.gen}.parquet")).sort_by("term")
    seen = np.flatnonzero(corpus.df > 0)
    order = np.argsort(corpus.words[seen].astype(str))
    ttf = np.bincount(np.concatenate(corpus.doc_tokens), minlength=len(corpus.words))
    ok = (ts.column("term").to_pylist() == list(corpus.words[seen[order]])
          and np.array_equal(ts.column("doc_freq").to_numpy(), corpus.df[seen[order]])
          and np.array_equal(ts.column("total_tf").to_numpy(), ttf[seen[order]]))
    run.check(f"{name}.term_dictionary", ok, "term/df/ttf differ from the generator's")
    for d in m.segment_dirs() if check_segments else ():
        problems = check_segment(d)
        run.check(f"{name}.check_segment.{os.path.basename(d)}", not problems,
                  "; ".join(problems[:3]))


def ingest(run: Run, src: str, work: str, corpus) -> tuple[str | None, str | None]:
    """Both build paths, once each. Their rates are per-layer metrics of the
    traced run, not end-to-end ones (see perfbench/README.md, "Noise").
    Returns the two index dirs (None for a build that raised)."""
    dirs = []
    for name, build in (("build_index_by_file", build_by_file), ("build_index", build_shuffle)):
        d = os.path.join(work, name)
        out, secs = run.stage(name, build, src, d)
        log(f"{name}: {secs:.2f} s")
        dirs.append(None if out is None else d)
    idx, sh = dirs
    if idx is not None:
        run.metric("index_bytes_per_text_byte", dir_bytes(idx) / corpus.text_bytes, "ratio")
    return idx, sh


# ------------------------------------------------------------ machine speed
#
# Set-up and query times are reported at nominal machine speed: each timed
# piece of that work runs between two timings of a fixed probe
# (perfbench/speed.py) in the driver and is divided by their mean speed
# factor (rates: multiplied). The shared host this was tuned on changes
# speed by up to ~3x within seconds; the probe is chosen to slow down as
# lucene_ray's query code does. Raw values go to standard error.

ROUND_S = 0.25  # query-loop time between two probes


def open_searcher(idx: str, first_query: str):
    from lucene_ray.searcher import IndexSearcher

    s = IndexSearcher(idx)
    s.search(first_query, k=K)
    return s


def setup(run: Run, idx: str, first_query: str, raw: dict, probe):
    """Median time to open a searcher and answer one query."""
    times, nominal = [], []
    s = None
    f0 = probe.factor()
    for i in range(SETUP_REPEATS):
        s, secs = run.stage(f"setup.{i}", open_searcher, idx, first_query)
        if s is None:
            return None
        f1 = probe.factor()
        times.append(secs)
        nominal.append(secs / ((f0 + f1) / 2))
        f0 = f1
    raw["setup_s"] = statistics.median(times)
    run.metric("setup_s", statistics.median(nominal), "s")
    return s


def algo_for(shape: str) -> str:
    # 3-term ORs take the WAND path; everything else lets the searcher choose
    return "wand" if shape == "or3" else "auto"


def query_loop(run: Run, searcher, qlog, seconds: float, probe):
    """Closed loop, one client: each query is sent when the previous one
    returned, for ``seconds`` in all. Every ``ROUND_S`` of queries sits
    between two probe timings. Returns (per-query latencies at nominal
    speed, queries per second of each round at nominal speed, the same
    raw)."""
    lat = []
    rates, raw_rates = [], []
    queries = iter(qlog)
    end = time.perf_counter() + seconds
    f0 = probe.factor()
    while time.perf_counter() < end:
        round_lat = []
        start = time.perf_counter()
        while time.perf_counter() - start < ROUND_S:
            item = next(queries, None)
            if item is None:
                log("query log exhausted before the time was up")
                end = 0
                break
            shape, q = item
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                td = searcher.search(q, k=K, algo=algo_for(shape))
                _ = len(td.score_docs)
            except Exception:
                run.failed += 1
                log(f"FAILED query {q!r}:\n{traceback.format_exc()}")
            round_lat.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        f1 = probe.factor()
        f = (f0 + f1) / 2
        f0 = f1
        if round_lat:
            lat.extend(x / f for x in round_lat)
            raw_rates.append(len(round_lat) / elapsed)
            rates.append(raw_rates[-1] * f)
    return lat, rates, raw_rates


def rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found")


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


# ------------------------------------------------------------ correctness

def topk(searcher, q: str, algo: str):
    td = searcher.search(q, k=K, algo=algo)
    return [(sd.doc_key, sd.score) for sd in td.score_docs]


def check_wand(run: Run, searcher, qlog) -> None:
    """WAND and exhaustive top-k: same keys, same float32 scores."""
    import numpy as np

    seen = set()
    for shape, q in qlog:
        if len(seen) >= WAND_CHECKS:
            break
        if shape not in ("term", "or", "or3") or q in seen:
            continue
        seen.add(q)
        a, b = topk(searcher, q, "wand"), topk(searcher, q, "exhaustive")
        ok = [k for k, _ in a] == [k for k, _ in b] and all(
            np.float32(x) == np.float32(y) for (_, x), (_, y) in zip(a, b))
        run.check(f"wand_vs_exhaustive {q!r}", ok, f"{a[:3]} vs {b[:3]}")


def check_oracle(run: Run, searcher, qlog, corpus) -> None:
    """A sample of term / AND / OR queries against brute-force BM25."""
    from perfbench.oracle import BruteForceBM25

    oracle = BruteForceBM25(corpus)
    want = dict(ORACLE_CHECKS)
    seen = set()
    for shape, q in qlog:
        if want.get(shape, 0) <= 0 or q in seen:
            continue
        seen.add(q)
        want[shape] -= 1
        terms = q.replace(" AND ", " ").split()
        exp = oracle.topk(terms, K, conjunctive=(shape == "and"))
        got = topk(searcher, q, "auto")
        ok = [k for k, _ in got] == [k for k, _ in exp] and all(
            abs(x - y) <= 1e-6 for (_, x), (_, y) in zip(got, exp))
        run.check(f"oracle {q!r}", ok, f"{got[:3]} vs {exp[:3]}")


# ------------------------------------------------------------ workloads

def make_inputs(seed: int, work: str):
    from perfbench import corpus as C

    corpus = C.make_corpus(seed, N_DOCS)
    src = os.path.join(work, "src")
    C.write_parquet(corpus, src, N_FILES)
    return corpus, src


def query_log(corpus, which: str):
    from perfbench import corpus as C

    if which == "hot":
        return C.hot_log(corpus, HOT_LOG_LEN)
    return C.tail_log(corpus, TAIL_LOG_LEN)


def run_untraced(run: Run, workload: str, seed: int, seconds: float, work: str) -> None:
    from perfbench.speed import SpeedProbe

    probe = SpeedProbe()  # first, so that its share of the RSS is known
    with phase("inputs"):
        corpus, src = make_inputs(seed, work)
        qlog = query_log(corpus, "hot" if workload == "search_hot" else "tail")
    log(json.dumps({"corpus": corpus.summary()}))
    raw: dict[str, float] = {}
    with phase("ray+ingest"), ray_session():
        with phase("warm"):
            run.stage("warm workers", warm_workers)
        idx, sh = ingest(run, src, work, corpus)
    with phase("ingest checks"):
        # check_segment walks every term in Python: it runs on the searched
        # (by-file) index; the shuffle index gets the statistics checks
        if idx is not None:
            run.stage("check by_file", check_index, run, "by_file", idx, corpus)
        if sh is not None:
            run.stage("check shuffle", check_index, run, "shuffle", sh, corpus,
                      check_segments=False)
    if idx is None:
        return
    with phase("setup"):
        searcher = setup(run, idx, qlog[0][1], raw, probe)
    if searcher is None:
        return
    with phase("warm-up"):
        # untimed: fills the hot log's caches (each of its 48 queries is in
        # these 1,000); tail queries are distinct, so the loop starts past them
        for shape, q in qlog[:WARMUP_QUERIES]:
            run.stage(f"warm-up query {q!r}", searcher.search, q, k=K, algo=algo_for(shape))
    with phase("loop"):
        lat, rates, raw_rates = query_loop(run, searcher, qlog[WARMUP_QUERIES:], seconds,
                                           probe)
    if len(lat) >= MIN_TIMED_QUERIES:
        raw["queries_per_s"] = statistics.median(raw_rates)
        run.metric("query_p50_ms", percentile(lat, 50) * 1e3, "ms")
        run.metric("query_p99_ms", percentile(lat, 99) * 1e3, "ms")
        run.metric("queries_per_s", statistics.median(rates), "queries/s")
        # the probe's own objects are not the searcher's
        run.metric("searcher_rss_mb", rss_mb() - probe.rss_bytes / 2**20, "MB")
        log(f"timed queries: {len(lat)}")
    log(json.dumps({"raw": raw}))
    with phase("search checks"):
        run.stage("check wand", check_wand, run, searcher, qlog)
        run.stage("check oracle", check_oracle, run, searcher, qlog, corpus)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import lucene_ray.searcher  # noqa: F401
    except ImportError as e:
        log(f"cannot import lucene_ray from {ROOT}: {e}")
        return 2

    os.chdir(ROOT)  # see _ray_temp_dir
    os.environ.update(RAY_ENV)
    seed = args.seed % (1 << 63)  # numpy seeds must not be negative
    work = os.path.join(RUN_DIR, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run()
    try:
        if args.trace:
            from perfbench.traced import run_traced

            run_traced(run, seed, work)
        else:
            run_untraced(run, args.workload, seed, args.seconds, work)
    except Exception:
        # whatever no stage caught (Ray start-up, input generation) still
        # ends in a result line, counted as a failure
        run.attempted += 1
        run.failed += 1
        log(f"FAILED run:\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    print(json.dumps(run.result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
