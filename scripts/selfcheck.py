"""Self-check harness mimicking the driver's correctness gate:
runs every queries() entry and its oracle_sql() side-by-side via DuckDB,
compares row count, column names, and order-insensitive values.

Usage: python scripts/selfcheck.py [sf_dir] [gate ...]

With gate names after ``sf_dir``, only those gates run.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import time

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(obj):
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = np.round(df[c].astype(np.float64), 6)
        elif df[c].dtype == bool:
            df[c] = df[c].astype(np.int64)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main(sf_dir: str, gates: list[str] | None = None):
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    if gates:
        unknown = [g for g in gates if g not in qs]
        if unknown:
            print(f"unknown gate(s): {', '.join(unknown)}")
            return len(unknown)
        qs = {g: qs[g] for g in gates}

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    n_pass = n_fail = 0
    for name, fn in qs.items():
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: engine error {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"rows-only {name}: {len(mine)} rows ({dt:.1f}s)")
            n_pass += 1
            continue
        try:
            oracle = canon(con.execute(sqls[name]).df())
        except Exception as e:
            print(f"FAIL {name}: oracle SQL error: {e}")
            n_fail += 1
            continue
        ok = True
        if list(mine.columns) != list(oracle.columns):
            print(f"FAIL {name}: columns {list(mine.columns)} != {list(oracle.columns)}")
            ok = False
        elif len(mine) != len(oracle):
            print(f"FAIL {name}: rows {len(mine)} != {len(oracle)}")
            ok = False
        else:
            try:
                pd.testing.assert_frame_equal(mine, oracle, check_dtype=False,
                                              check_exact=False, rtol=0, atol=1e-9)
            except AssertionError as e:
                print(f"FAIL {name}: values differ: {str(e)[:400]}")
                diff = mine.compare(oracle) if mine.shape == oracle.shape else None
                if diff is not None and len(diff):
                    print(diff.head(10))
                ok = False
        if ok:
            print(f"PASS {name}: {len(mine)} rows ({dt:.1f}s)")
            n_pass += 1
        else:
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    return n_fail


if __name__ == "__main__":
    sys.exit(1 if main(sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01",
                       sys.argv[2:]) else 0)
