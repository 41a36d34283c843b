"""Toolkit for detecting machine-generated text with classical ML.

Pipeline: BPE subword tokenization -> TF-IDF n-gram features -> three
from-scratch classifiers (multinomial naive Bayes, SGD logistic-loss
linear, histogram gradient-boosted trees in leaf-wise and symmetric
variants) -> weighted soft voting, optionally blended with externally
produced score files -> exact tie-aware ROC-AUC evaluation.
"""

from .corpus import (LabeledCorpus, SplitSpec, load_corpus, save_corpus,
                     split_corpus, synth_corpus)
from .ensemble import (EnsembleSpec, ExternalScores, Voter,
                       load_external_scores, rank_average, run_ensemble,
                       soft_vote, tune_weights)
from .errors import LlmdetectError
from .features import (NgramVocabulary, TfidfConfig, TfidfModel,
                       extract_ngrams, fit_tfidf, transform_corpus)
from .metrics import (ConfusionCounts, RocCurve, confusion_at, roc_auc,
                      roc_auc_exact, roc_curve, trapezoid_auc_exact)
from .models import (GbdtConfig, GbdtModel, ModelBundle, NaiveBayesModel,
                     SgdConfig, SgdLinearModel, load_model, save_model,
                     train_gbdt, train_nb, train_sgd)
from .sparse import SparseMatrix
from .tokenizer import (BpeVocab, TokenCorpus, TokenSequence, decode, encode,
                        encode_corpus, load_vocab, save_vocab, train_bpe)

__version__ = "0.1.0"
