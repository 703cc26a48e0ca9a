"""The repository benchmark: four workloads measured end to end and by layer.

Run ``PYTHONPATH=src python -m bench run --seed 1`` from the repository
root; ``bench/README.md`` documents the workloads, metrics and bounds.
Importing this package imports nothing from the program, so the runner
can report a missing program cleanly.
"""
