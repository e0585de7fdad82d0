"""Repository benchmark: workloads, output oracle and per-layer tracing."""
