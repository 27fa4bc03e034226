"""Probability, entropy, and mutual information over character n-gram random sets.

Text segments become sets of character n-grams; a Gaussian kernel on the
symmetric-difference metric turns those sets into capacity masses, from
which entropies and mutual information are estimated per step sample.
Simulated segmentation agents (random splitter, heuristic extractor, gold
triples) produce the samples, and trajectory runs score them against the
structural ordering I(X,Y) > I(Y,Z) > I(X,Z).

Importing the package pins BLAS to one thread unless a thread count is
already set: a step's Gram products are small, and a threaded BLAS makes
them slower and erratic on few cores.  The pin takes effect only if setinfo
is imported before numpy.
"""

import os

# OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS, so a count set
# only through OMP_NUM_THREADS is carried over rather than overridden.
os.environ.setdefault("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "1"))
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .agents import (  # noqa: E402 - the thread pin must precede numpy's import
    AgentSpec,
    ContextTooShort,
    StepSample,
    SynthGrammar,
    Triplet,
    build_step_samples,
    default_grammar,
    heuristic_extract,
    load_triplets,
    load_verb_lexicon,
    synth_corpus,
    write_triplets,
)
from .config import ConfigInvalid, MalformedLine, load_config, parse_config_text
from .corpus import (
    CorpusTooSmall,
    Document,
    DocumentCollection,
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
