"""The repository's benchmark: proof-carrying query, transact and swap
workloads with a traced per-layer cost split (see README.md)."""
