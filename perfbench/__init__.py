"""Benchmark for sensilab; see RATIONALE.md and run.py."""
