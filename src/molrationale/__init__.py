"""Rationale-based multi-objective molecule generation.

Pipeline: extract property rationales from positive molecules by tree search,
merge them across properties on their maximum common substructure, complete
rationales into molecules with a subgraph-conditioned variational graph
generator, fine-tune toward the property constraints, and score the results.
"""

from .chemgraph import (
    Atom,
    Bond,
    Deletion,
    MolGraph,
    ParseError,
    ValenceError,
    apply_deletion,
    canonical_key,
    contains_subgraph,
    embeddings,
    parse_smiles,
    peripheral_deletions,
    write_smiles,
)
from .extract import Rationale, RationaleVocab, build_vocab, extract_rationales
from .fingerprint import (
    BitFingerprint,
    fingerprint_matrix,
    morgan_fingerprint,
    tanimoto,
    tanimoto_matrix,
)
from .forest import (
    ForestModel,
    PropertySpec,
    auroc,
    positive_mask,
    predict_score,
    predict_scores,
    train_forest,
)
from .genmodel import GenModel, complete_with_trace, encode, log_likelihood_tensor, sample_latent
from .merge import build_multi_vocab, max_common_substructure, merge_pair
from .metrics import EvalReport, diversity, evaluate, novelty
from .train import (
    RationaleDistribution,
    TrainConfig,
    finetune,
    make_pretrain_pairs,
    pretrain,
    rationale_distribution,
    sample_molecules,
)

__version__ = "0.1.0"
