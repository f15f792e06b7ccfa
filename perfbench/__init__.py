"""Benchmark of the daedisc pipeline: seeded workloads, checks, tracing."""
