"""The repo benchmark: see bench/README.md."""
