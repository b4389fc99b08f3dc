"""Learning of lifted RBMs by gradient boosting of relational regression trees."""

from .data import (
    ExampleSet,
    ParseError,
    generate_negatives,
    parse_atom_text,
    parse_examples,
    parse_facts,
    parse_modes,
    split_folds,
)
from .logic import UnknownConstantError
from .metrics import cross_validate
from .model import BoostedModel, TrainConfig, load_model, save_model, train
from .network import distill_single_tree, dumps_network, export, lrbm_inference, paths_to_lrbm

__version__ = "0.1.0"
