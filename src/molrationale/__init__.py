"""Rationale-based multi-objective molecule generation.

Pipeline: extract property rationales from positive molecules by tree search,
merge them across properties on their maximum common substructure, complete
rationales into molecules with a subgraph-conditioned variational graph
generator, fine-tune toward the property constraints, and score the results.
"""

__version__ = "0.1.0"
