"""testlens: grammar-pattern analysis of unit-test method names."""

__version__ = "0.1.0"

from .splitter import Term, TermSequence, normalize, split
from .tagger import Lexicon, PosTag, TaggedName, tag
from .patterns import (
    CatalogEntry,
    GrammarPattern,
    PatternTemplate,
    catalog_match,
    default_catalog,
    pattern_of,
    prefix,
)
from .rename import (
    FormCategory,
    RenameClassification,
    RenameEvent,
    SemanticCategory,
    TermRelation,
    classify,
    relate,
    stem,
)

__all__ = [
    "CatalogEntry",
    "FormCategory",
    "GrammarPattern",
    "Lexicon",
    "PatternTemplate",
    "PosTag",
    "RenameClassification",
    "RenameEvent",
    "SemanticCategory",
    "TaggedName",
    "Term",
    "TermRelation",
    "TermSequence",
    "catalog_match",
    "classify",
    "default_catalog",
    "normalize",
    "pattern_of",
    "prefix",
    "relate",
    "split",
    "stem",
    "tag",
]
