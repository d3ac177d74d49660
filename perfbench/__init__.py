"""The repository's end-to-end benchmark (see README.md; run ``perfbench/run.py``)."""
