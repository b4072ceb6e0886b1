"""logicrbm: compile propositional knowledge bases into restricted
Boltzmann machines whose minimised energy tracks weighted satisfiability,
then reason over, train, and extract rules from the resulting networks."""

from .errors import ParseError, SizeLimitError
from .formula import (
    Assignment, KnowledgeBase, PropositionTable,
    load_kb, parse_formula, parse_kb,
)
from .normal_forms import (
    ConjunctiveClause, clause_to_sdnf, to_full_dnf,
)
from .rbm import (
    Rbm, energy_rank, load_model, p_hidden_given_visible, p_visible_given_hidden,
    save_model,
)
from .compiler import (
    ClauseBase, WeightedClause, attach_hidden_units, compile_kb, merge_clauses,
    penalty_network, universal_network,
)
from .reasoner import (
    DeterministicConfig, GibbsConfig, Query, infer_conditional, infer_deterministic,
    infer_exact, infer_gibbs, verify_equivalence,
)
from .trainer import (
    Dataset, OneHotSpec, TrainConfig, dataset_from_kb, epoch_losses,
    ingest_categorical, read_csv, train,
)
from .extractor import (
    ExtractedClause, extract_clauses, score_reliability,
)

__version__ = "0.1.0"
