"""Probability, entropy, and mutual information over character n-gram random sets.

Text segments become sets of character n-grams; a Gaussian kernel on the
symmetric-difference metric turns those sets into capacity masses, from
which entropies and mutual information are estimated per step sample.
Simulated segmentation agents (random splitter, heuristic extractor, gold
triples) produce the samples, and trajectory runs score them against the
structural ordering I(X,Y) > I(Y,Z) > I(X,Z).
"""

from .agents import (
    AgentSpec,
    ContextTooShort,
    MalformedLine,
    SourceExhausted,
    StepSample,
    SynthGrammar,
    Triplet,
    build_step_samples,
    default_grammar,
    heuristic_extract,
    load_triplets,
    load_verb_lexicon,
    random_split_agent,
    synth_corpus,
    write_triplets,
)
from .config import ConfigInvalid, load_config, parse_config_text
from .corpus import (
    Context,
    CorpusTooSmall,
    Document,
    DocumentCollection,
    MalformedManifest,
    load_documents,
    normalize_text,
    sample_contexts,
    split_sentences,
    tokenize_words,
    write_manifest,
)
from .density import (
    DegenerateDenominator,
    EmptySample,
    EstimatorConfig,
    MiRecord,
    capacity,
    compute_mi_record,
    conditional_entropy,
    entropy,
    joint_entropy,
    joint_mass_monitor,
    kernel,
    mutual_information,
    triplet_likelihood,
)
from .ngrams import EmptyText, LingSet, hamming, join, ngram_set
from .reward import UnknownScheme, demarcken_check, reward
from .svgplot import EmptySelection, write_svg
from .trajectory import (
    CSV_HEADER,
    MI_SERIES,
    RunConfig,
    TrajectoryResult,
    read_csv,
    rolling_mean,
    run_simulation,
    write_all_csv,
    write_csv,
)

__version__ = "0.1.0"
