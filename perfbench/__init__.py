"""dlw benchmark harness: seeded workloads, correctness gate, span tracer."""
