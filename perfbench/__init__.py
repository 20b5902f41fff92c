"""End-to-end benchmark of the eager engine, the plan service and budgeted
tuning; ``perfbench/run.py`` is the entry point."""
