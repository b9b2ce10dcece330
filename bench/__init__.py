"""The repo's benchmark: ``python3 bench/run.py``; see README.md."""
