"""Walkthrough: training a byte-pair-encoding tokenizer from scratch.

Run:  python demos/01_bpe_tokenizer.py
"""

from llmdetect import decode, encode, load_vocab, save_vocab, train_bpe

corpus = [
    "the cat sat on the mat",
    "the bat sat on the hat",
    "a cat and a bat in a hat",
]

print("corpus:")
for line in corpus:
    print("   ", line)

# Training initializes every character as a symbol (plus an end-of-word
# marker per word), then repeatedly merges the most frequent adjacent pair.
vocab = train_bpe(corpus, vocab_size=40)
print(f"\nvocabulary size {vocab.size}, {len(vocab.merges)} merges learned:")
# Each merge is a (left, right) pair; its rank is its place in the list.
for rank, (left, right) in enumerate(vocab.merges):
    print(f"    rank {rank:2d}: {left!r} + {right!r} -> {left + right!r}")

# Encoding replays the merges greedily in rank order, word by word.
text = "the cat sat"
seq = encode(vocab, text)
symbols = vocab.id_to_symbol()
print(f"\nencode {text!r} -> ids {list(seq.ids)}")
print("    symbols:", [symbols[i] for i in seq.ids])

# Decoding concatenates symbols and turns markers back into spaces.
print("decode back:", repr(decode(vocab, seq.ids)))

# Characters never seen at training time map to the unknown id.
seq_unknown = encode(vocab, "zebra!")
print(f"\nencode 'zebra!' (unseen chars) -> ids {list(seq_unknown.ids)}; "
      f"unknown id is {vocab.unknown_id}")

# The vocabulary file is canonical: byte-identical across saves.
data = save_vocab(vocab)
assert save_vocab(load_vocab(data)) == data
print(f"\nserialized vocabulary: {len(data)} bytes, round-trips exactly")
