"""Token-language toolkit.

Context-free grammars over characters or bytes, byte-level BPE tokenizers,
and the bridge between them: because detokenization is a concatenation
homomorphism, a token-ID sequence belongs to the token image of a language
exactly when its detokenization belongs to the language.  The package
decides that membership, at once or token by token while decoding,
enumerates and classifies the full tokenization space of a string, and
ships executable property suites for the structural claims it relies on.
"""

from .bpe import (
    Tokenizer,
    TokenizerError,
    dumps_tokenizer,
    escape_bytes,
    load_gpt2_tokenizer,
    load_tokenizer,
    loads_tokenizer,
    save_tokenizer,
    train,
    unescape_bytes,
)
from .encoding import UTF8, EncodingError, EncodingScheme, encode_grammar, encode_string
from .grammar import (
    Grammar,
    GrammarError,
    GrammarParseError,
    Production,
    RecognitionSession,
    add_leading_space,
    as_terminals,
    format_grammar,
    parse_grammar,
    recognize,
    reduce_grammar,
    sample,
)
from .recognizer import TokenRecognizer, TokenSession, relevant_token_ids
from .segmentation import (
    Classification,
    Kind,
    classify,
    count_tokenizations,
    enumerate_tokenizations,
    find_mergeable_pair,
    unmerge,
)
from .verify import (
    SuiteReport,
    find_tokenize_witness,
    run_equivalence_suite,
    run_homomorphism_suite,
    run_partition_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "EncodingError",
    "EncodingScheme",
    "Grammar",
    "GrammarError",
    "GrammarParseError",
    "Kind",
    "Production",
    "RecognitionSession",
    "SuiteReport",
    "TokenRecognizer",
    "TokenSession",
    "Tokenizer",
    "TokenizerError",
    "UTF8",
    "add_leading_space",
    "as_terminals",
    "classify",
    "count_tokenizations",
    "dumps_tokenizer",
    "encode_grammar",
    "encode_string",
    "enumerate_tokenizations",
    "escape_bytes",
    "find_mergeable_pair",
    "find_tokenize_witness",
    "format_grammar",
    "load_gpt2_tokenizer",
    "load_tokenizer",
    "loads_tokenizer",
    "parse_grammar",
    "recognize",
    "reduce_grammar",
    "relevant_token_ids",
    "run_equivalence_suite",
    "run_homomorphism_suite",
    "run_partition_suite",
    "sample",
    "save_tokenizer",
    "train",
    "unescape_bytes",
    "unmerge",
]
