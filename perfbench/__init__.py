"""Benchmark of the absorbing_mdp library; run it with perfbench/run.py."""
