"""Token-language toolkit.

Context-free grammars over characters or bytes, byte-level BPE tokenizers,
and the bridge between them: because detokenization is a concatenation
homomorphism, a token-ID sequence belongs to the token image of a language
exactly when its detokenization belongs to the language.  The package
decides that membership, at once or token by token while decoding,
enumerates and classifies the full tokenization space of a string, and
ships executable property suites for the structural claims it relies on.

``import toklang`` loads no submodule: each public name is imported from
its module on first use, so a program, the command line included, loads
only the modules it runs.  The value classes (``Grammar``, ``Tokenizer``,
``TokenRecognizer``, ``EncodingScheme``, ``Classification``) are plain
immutable classes that compare and hash by their fields; ``SuiteReport``
compares the same way and stays mutable.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bpe": ("Kind", "Tokenizer", "TokenizerError", "dumps_tokenizer", "escape_bytes",
            "load_gpt2_tokenizer", "load_tokenizer", "loads_tokenizer", "save_tokenizer",
            "train", "unescape_bytes"),
    "encoding": ("UTF8", "EncodingError", "EncodingScheme", "encode_grammar",
                 "encode_string"),
    "grammar": ("Grammar", "GrammarError", "GrammarParseError", "Production",
                "RecognitionSession", "add_leading_space", "as_terminals", "format_grammar",
                "parse_grammar", "recognize", "reduce_grammar", "sample"),
    "recognizer": ("TokenRecognizer", "TokenSession", "relevant_token_ids"),
    "segmentation": ("Classification", "classify", "count_tokenizations",
                     "enumerate_tokenizations", "find_mergeable_pair", "unmerge"),
    "verify": ("SuiteReport", "find_tokenize_witness", "run_equivalence_suite",
               "run_homomorphism_suite", "run_partition_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
