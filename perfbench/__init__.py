"""Benchmark for lucene_ray: seeded web-text corpus, ingest and search
workloads, and a traced per-layer run. Entry point: ``python3 perfbench/run.py``."""
