"""Walkthrough: TF-IDF weighting over token n-grams.

Run:  python demos/02_tfidf_features.py
"""

from llmdetect import (TfidfConfig, encode, extract_ngrams, fit_tfidf,
                       train_bpe, transform_corpus)

corpus = [
    "the model writes fluent text",
    "the human writes messy text",
    "fluent text is suspicious",
]

vocab = train_bpe(corpus, vocab_size=80)
sequences = [encode(vocab, t) for t in corpus]

# n-grams over token ids, with multiplicity
counts = extract_ngrams(sequences[0], ngram_min=1, ngram_max=2)
print(f"document 0 has {len(counts)} distinct 1-2 grams")

# idf(t) = ln((1 + N) / (1 + df(t))) + 1: floor of 1.0 for ubiquitous
# terms, growing as terms get rarer
model = fit_tfidf(sequences, TfidfConfig(ngram_min=1, ngram_max=2, min_df=1))
print(f"vocabulary: {model.n_features} n-grams over {len(sequences)} docs")
ngrams = model.vocabulary.ngrams
by_idf = sorted(range(model.n_features), key=lambda c: model.idf[c])
symbols = vocab.id_to_symbol()


def render(ngram):
    return "+".join(symbols[i] for i in ngram)


print("most common (lowest idf):",
      [(render(ngrams[c]), round(model.idf[c], 3)) for c in by_idf[:3]])
print("rarest (highest idf):   ",
      [(render(ngrams[c]), round(model.idf[c], 3)) for c in by_idf[-3:]])

# each document becomes an L2-normalized sparse row of a CSR matrix:
# row i's columns and weights are cols and vals from indptr[i] to
# indptr[i + 1]
X = transform_corpus(model, sequences)
lo, hi = X.indptr[0], X.indptr[1]
cols, vals = X.cols[lo:hi], X.vals[lo:hi]
print(f"\ndocument 0 vector: {hi - lo} nonzeros out of {model.n_features}")
print("first entries:", [(c, round(w, 4)) for c, w in
                         zip(cols.tolist()[:5], vals.tolist()[:5])])

print(f"corpus matrix: {X.n_rows} x {X.n_cols}, {X.nnz} stored values")
