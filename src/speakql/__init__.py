"""speakql: restricted-English (text or phoneme-stream) to SQL compiler.

Pipeline: optional HMM/grammar decoding of a symbolic phoneme stream to
English text, lexing against a schema-derived lexicon, predictive
parsing to an intermediate form, table resolution with join-path
inference over the shared-column schema graph, SQL rendering, and an
optional CSV-backed executor.
"""

from .builder import ResolvedQuery, SqlQuery, generate_sql, resolve
from .decoder import Decoding, GrammarFsa, WordHmm, decode_sentence, load_models, viterbi_word
from .errors import SpeakqlError
from .executor import Dataset, ResultSet, execute, load_dataset
from .lexer import Lexicon, Token, TokenKind, generate_lexicon, tokenize
from .parser import Comparison, Connective, QueryIR, ir_to_text, parse
from .schema import (
    JoinPlan,
    Schema,
    SchemaGraph,
    build_graph,
    join_path,
    load_schema,
    tables_owning,
)

__version__ = "0.1.0"
