"""Balance measurement and collaborative rebalancing for payment channel networks.

Each layer lives in its own module, and callers import every name from the
module that defines it; the package root re-exports nothing.

- `model`: channels, the network graph, the Gini imbalance measure and the
  circular payment, the one balance writer.
- `cycles`: candidate rebalancing cycles under each search strategy.
- `rebalancer`: the greedy local-information rules and the simulation run.
- `ingestion`: snapshot and state files, coin-flip fund allocation, the
  largest strongly connected component and synthetic networks.
- `evaluation`: payment-ability metrics over cheapest-fee routes.
- `cli`: the `gen`, `simulate` and `evaluate` commands.

Only `evaluation` (and `cli`, which uses it) needs numpy; the rebalancing
core (`model`, `cycles`, `rebalancer`, `ingestion`) is pure Python.
"""

__version__ = "0.1.0"
