import csv
import hashlib
import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np
from conftest import traced_peak
from llmdetect.corpus import (DUMP_BLOCK_DOCS, GUIDE_BUCKETS, LEXICON_SIZE,
                              LabeledCorpus, SplitSpec,
                              _guide_picker, _zipf_cumulative, dump_corpus,
                              load_corpus, save_corpus, split_corpus,
                              synth_corpus)
from llmdetect.ensemble import parse_external_scores
from llmdetect.errors import CorpusError, EnsembleError
from oracles import synth_corpus_oracle


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_csv_preserves_row_order(self, tmp_path):
        path = write(tmp_path, "c.csv", 'id,text,label\nd1,hello,0\nd2,world,1\n')
        corpus = load_corpus(path, "csv")
        assert corpus.ids == ["d1", "d2"]
        assert corpus.texts == ["hello", "world"]
        assert corpus.labels == [0, 1]

    def test_header_only_csv_is_empty_corpus(self, tmp_path):
        path = write(tmp_path, "c.csv", "id,text,label\n")
        assert len(load_corpus(path, "csv")) == 0

    def test_label_out_of_range_reports_line(self, tmp_path):
        path = write(tmp_path, "c.csv", "id,text,label\nd1,x,0\nd2,y,2\n")
        with pytest.raises(CorpusError, match="label out of range at line 3"):
            load_corpus(path, "csv")

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path, "c.csv", "id,text,label\nd1,x,0\nd1,y,1\n")
        with pytest.raises(CorpusError, match="duplicate id"):
            load_corpus(path, "csv")

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "c.csv", "id,text,label\nd1,x\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path, "csv")

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,text,label\nd1,\xff\xfe,0\n")
        with pytest.raises(CorpusError, match="undecodable"):
            load_corpus(path, "csv")

    def test_jsonl(self, tmp_path):
        path = write(tmp_path, "c.jsonl",
                     '{"id":"d1","text":"hi","label":0}\n'
                     '{"id":"d2","text":"yo","label":1}\n')
        corpus = load_corpus(path, "jsonl")
        assert corpus.ids == ["d1", "d2"] and corpus.labels == [0, 1]

    def test_jsonl_text_with_unicode_line_breaks(self, tmp_path):
        # str.splitlines broke this line at each of the three characters
        text = "a\u2028b\u2029c\u0085d"
        path = write(tmp_path, "c.jsonl", json.dumps(
            {"id": "d1", "text": text, "label": 1}, ensure_ascii=False))
        assert "\u2028" in path.read_text(encoding="utf-8")
        corpus = load_corpus(path, "jsonl")
        assert corpus.texts == [text] and corpus.labels == [1]
        save_corpus(corpus, tmp_path / "again.jsonl", "jsonl")
        assert load_corpus(tmp_path / "again.jsonl", "jsonl").texts == [text]

    def test_jsonl_crlf(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id":"d1","text":"hi","label":0}\r\n'
                         b'{"id":"d2","text":"yo","label":1}\r\n')
        corpus = load_corpus(path, "jsonl")
        assert corpus.ids == ["d1", "d2"] and corpus.labels == [0, 1]
        path.write_bytes(b'{"id":"d1","text":"hi","label":0}\r\n'
                         b'\r\n{"id":"d2","text":"yo","label":1,"x":2}\r\n')
        with pytest.raises(CorpusError, match="at line 3$"):
            load_corpus(path, "jsonl")

    def test_jsonl_extra_key_rejected(self, tmp_path):
        path = write(tmp_path, "c.jsonl",
                     '{"id":"d1","text":"hi","label":0,"extra":1}\n')
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path, "jsonl")

    @pytest.mark.parametrize("line, message", [
        ('{"id":5,"text":"x","label":0}', "id must be a string, got 5"),
        ('{"id":"d","text":null,"label":0}',
         "text must be a string, got None"),
        ('{"id":"d","text":"x","label":1.0}',
         "label must be an integer, got 1.0"),
        ('{"id":"d","text":"x"}', "missing key 'label'"),
        ('["d","x",0]', "expected an object, got list"),
    ])
    def test_jsonl_row_names_key_and_line(self, tmp_path, line, message):
        path = write(tmp_path, "c.jsonl",
                     '{"id":"a","text":"y","label":1}\n\n' + line + "\n")
        with pytest.raises(CorpusError) as refused:
            load_corpus(path, "jsonl")
        assert str(refused.value) == f"{path}: {message} at line 3"

    def test_jsonl_bool_label_rejected(self, tmp_path):
        path = write(tmp_path, "c.jsonl", '{"id":"d1","text":"x","label":true}\n')
        with pytest.raises(CorpusError, match="integer"):
            load_corpus(path, "jsonl")

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_round_trip(self, tmp_path, format):
        corpus = LabeledCorpus(
            ids=["a", "b", "c"],
            texts=['text with, "quotes"\nand newline', "", "ünïcödé"],
            labels=[1, 0, 1])
        path = tmp_path / f"rt.{format}"
        save_corpus(corpus, path, format)
        loaded = load_corpus(path, format)
        assert loaded.ids == corpus.ids
        assert loaded.texts == corpus.texts
        assert loaded.labels == corpus.labels

    @pytest.mark.parametrize("n_docs", [0, 1, DUMP_BLOCK_DOCS,
                                        2 * DUMP_BLOCK_DOCS + 3])
    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_saved_bytes_are_the_dump(self, tmp_path, format, n_docs):
        texts = ['with, "quotes"', "two\nlines\r\n", "ünïcödé \u2028 ✓", ""]
        corpus = LabeledCorpus(
            ids=[f"d{i},\"{i}\"" for i in range(n_docs)],
            texts=[texts[i % len(texts)] for i in range(n_docs)],
            labels=[i % 2 for i in range(n_docs)])
        path = tmp_path / f"c.{format}"
        save_corpus(corpus, path, format)
        assert path.read_bytes() == dump_corpus(corpus, format).encode("utf-8")

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_save_holds_one_block_of_rows(self, tmp_path, format):
        # The 4,000 documents' file is 2.6 MB; holding its whole text and
        # bytes at once peaks at 5.5 MB (csv) and 8.4 MB (jsonl), a block
        # of rows at about 0.55 MB.
        corpus = synth_corpus(2000, seed=1, divergence=0.0004)
        peak = traced_peak(lambda: save_corpus(corpus, tmp_path / "c", format))
        assert peak < 1_500_000

    def test_unknown_format_writes_nothing(self, tmp_path):
        corpus = LabeledCorpus(ids=["a"], texts=["x"], labels=[0])
        with pytest.raises(CorpusError, match="unknown corpus format"):
            save_corpus(corpus, tmp_path / "c.txt", "txt")
        assert list(tmp_path.iterdir()) == []

    def test_dump_is_deterministic(self):
        corpus = synth_corpus(3, seed=9, divergence=0.4)
        assert dump_corpus(corpus, "jsonl") == dump_corpus(corpus, "jsonl")


# Corpus CSV and score files share one reader: the same fault gives each
# reader's error class and the same message.
ID_FILES = {
    "corpus": (CorpusError, "id,text,label", "x,0",
               lambda path: load_corpus(path, "csv")),
    "scores": (EnsembleError, "id,score", "0.5",
               lambda path: parse_external_scores(path.read_text(), str(path))),
}
LIMIT = csv.field_size_limit()
ID_FILE_FAULTS = {  # name: (file text, message after "<path>: ")
    "empty file": ("", "missing header row"),
    "long wrong header": ("x" * 100_000 + "\n", "header must be {header}, got "
                          + "x" * 80 + "... (100000 characters)"),
    "short row": ("{header}\nd0,{rest}\nd1\n",
                  "expected {width} fields, got 1 at line 3"),
    "empty id": ("{header}\nd0,{rest}\n,{rest}\n", "empty id at line 3"),
    "duplicate id": ("{header}\nd0,{rest}\nd0,{rest}\n",
                     "duplicate id 'd0' at line 3"),
    "field over the limit": ("{header}\nd0,{rest}\n" + "d" * (LIMIT + 1)
                             + ",{rest}\n",
                             f"field larger than field limit ({LIMIT}) "
                             f"at line 3"),
}


@pytest.mark.parametrize("fault", ID_FILE_FAULTS)
@pytest.mark.parametrize("kind", ID_FILES)
def test_id_file_fault_reported_alike(tmp_path, kind, fault):
    error, header, rest, read = ID_FILES[kind]
    text, message = ID_FILE_FAULTS[fault]
    path = write(tmp_path, f"{kind}.csv", text.format(header=header, rest=rest))
    with pytest.raises(error) as caught:
        read(path)
    width = header.count(",") + 1
    assert str(caught.value) == (f"{path}: "
                                 + message.format(header=header, width=width))


class TestColumns:
    @pytest.mark.parametrize("ids, texts, labels, message", [
        (["a", "b"], ["x"], [0, 1], "2 ids, 1 texts and 2 labels"),
        (["a", ""], ["x", "y"], [0, 1], "document id must be non-empty"),
        (["a", "b", "a"], ["x", "y", "z"], [0, 1, 0], "duplicate id 'a'"),
        (["a", "b"], ["x", "y"], [0, 0.7], "label 0.7 is not 0 or 1"),
    ])
    def test_refused(self, ids, texts, labels, message):
        with pytest.raises(CorpusError, match=message):
            LabeledCorpus(ids=ids, texts=texts, labels=labels)

    def test_subset_takes_each_column(self):
        corpus = LabeledCorpus(ids=["a", "b", "c"], texts=["x", "y", "z"],
                               labels=[0, 1, 1])
        assert corpus.subset([2, 0]) == LabeledCorpus(
            ids=["c", "a"], texts=["z", "x"], labels=[1, 0])


class TestSplit:
    def corpus(self, n_per_class):
        return LabeledCorpus(
            ids=[f"{c}{i}" for c in "hm" for i in range(n_per_class)],
            texts=[f"{cls} {i}" for cls in ("human", "machine")
                   for i in range(n_per_class)],
            labels=[0] * n_per_class + [1] * n_per_class)

    def test_stratified_counts(self):
        train, test = split_corpus(self.corpus(5), SplitSpec(0.2, seed=7))
        assert len(train) == 8 and len(test) == 2
        assert sorted(test.labels) == [0, 1]

    def test_deterministic(self):
        corpus = self.corpus(20)
        spec = SplitSpec(0.25, seed=3)
        first = split_corpus(corpus, spec)
        second = split_corpus(corpus, spec)
        assert first[0].ids == second[0].ids
        assert first[1].ids == second[1].ids

    def test_different_seeds_differ(self):
        corpus = self.corpus(50)
        _, test1 = split_corpus(corpus, SplitSpec(0.2, seed=1))
        _, test2 = split_corpus(corpus, SplitSpec(0.2, seed=2))
        assert set(test1.ids) != set(test2.ids)

    def test_partition(self):
        corpus = self.corpus(13)
        train, test = split_corpus(corpus, SplitSpec(0.3, seed=11))
        assert sorted(train.ids + test.ids) == sorted(corpus.ids)
        assert not set(train.ids) & set(test.ids)

    def test_too_small_rejected(self):
        corpus = LabeledCorpus(ids=["a"], texts=["x"], labels=[0])
        with pytest.raises(CorpusError):
            split_corpus(corpus, SplitSpec(0.5, seed=1))

    def test_fraction_validated(self):
        with pytest.raises(CorpusError):
            SplitSpec(1.5, seed=0)


# SHA-256 of dump_corpus(synth_corpus(n, seed, divergence), "csv"): the
# bytes every golden hash, holdout AUC and accuracy band rests on.  (150, 1,
# 0.0004) and (600, 1_000_004, 0.0004) are perfbench's seed-1 training set
# and stream; (300, 42, 0.8) is the README's and the acceptance suite's.
SYNTH_SHA256 = {
    (1, 0, 0.5):
        "8e073bcfd9c668ec0347ce989f72a06be976f6504e34f638869fc24a83f01d7c",
    (150, 1, 0.0004):
        "fd81fd0c62a4a3b2f92537a694b6e13de3dc756ec424b4ecfbe8450a65658121",
    (600, 1_000_004, 0.0004):
        "5afa539193e85d50ff1635109e87823e33b81d92dc9b4614e597e2692fd34a5a",
    (200, 3, 0.0):
        "7b39ef83d4f5dc4213c478f65fda45a65e32ae9fc816537f8cf8398a7890e19b",
    (50, 7, 1.0):
        "da75bd65fabed53d88821643c1f163590a045b4023da213d423c96df29e1de87",
    (300, 42, 0.8):
        "0459997285c643a5fe8f01b003952a88fc4e9eaeaed0513dedaf14271a1c4e1e",
}


@pytest.mark.parametrize("case", list(SYNTH_SHA256), ids=str)
def test_synth_bytes_pinned(case):
    text = dump_corpus(synth_corpus(*case), "csv")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        SYNTH_SHA256[case]


class TestSynth:
    def test_label_balance(self):
        corpus = synth_corpus(7, seed=0, divergence=0.3)
        assert sum(corpus.labels) == 7 and len(corpus) == 14

    def test_deterministic(self):
        a = synth_corpus(4, seed=42, divergence=0.6)
        b = synth_corpus(4, seed=42, divergence=0.6)
        assert a.texts == b.texts and a.ids == b.ids

    def test_seeds_differ(self):
        a = synth_corpus(4, seed=1, divergence=0.6)
        b = synth_corpus(4, seed=2, divergence=0.6)
        assert a.texts != b.texts

    def test_document_lengths_in_range(self):
        corpus = synth_corpus(20, seed=5, divergence=0.5)
        for text in corpus.texts:
            assert 50 <= len(text.split()) <= 200

    def test_divergence_validated(self):
        with pytest.raises(CorpusError):
            synth_corpus(3, seed=0, divergence=1.2)
        with pytest.raises(CorpusError):
            synth_corpus(3, seed=0, divergence=float("nan"))
        with pytest.raises(CorpusError):
            synth_corpus(0, seed=0, divergence=0.5)

    @pytest.mark.parametrize("n_per_class", [2.5, True, "3", None])
    def test_n_per_class_must_be_an_integer(self, n_per_class):
        with pytest.raises(CorpusError, match="n_per_class must be an integer"):
            synth_corpus(n_per_class, seed=1, divergence=0.5)

    @pytest.mark.parametrize("divergence", ["0.5", None, 0.5j, False])
    def test_divergence_must_be_real(self, divergence):
        with pytest.raises(CorpusError,
                           match="divergence must be a finite number"):
            synth_corpus(2, seed=1, divergence=divergence)

    @settings(max_examples=40, deadline=None)
    @given(n_per_class=st.integers(1, 400), seed=st.integers(0, 2**64),
           divergence=st.floats(0.0, 1.0))
    @example(n_per_class=1, seed=0, divergence=0.0)
    @example(n_per_class=400, seed=2**64, divergence=1.0)
    def test_matches_one_choices_call_per_document(self, n_per_class, seed,
                                                   divergence):
        fast = synth_corpus(n_per_class, seed, divergence)
        slow = synth_corpus_oracle(n_per_class, seed, divergence)
        assert fast.ids == slow.ids
        assert fast.texts == slow.texts
        assert fast.labels == slow.labels

    def test_memory_is_one_block_of_draws(self):
        # Beyond its texts, the 4,000 documents hold about 0.5 MB (ids and
        # lists) and a block of draws about 1.1 MB more;
        # drawing all of a class's words at once peaks at about 14 MB.
        corpus = None

        def run():
            nonlocal corpus
            corpus = synth_corpus(2000, seed=1, divergence=0.0004)

        peak = traced_peak(run)
        texts = sum(sys.getsizeof(text) for text in corpus.texts)
        assert peak - texts < 3_000_000

    @pytest.mark.parametrize("divergence", [0.0, 0.0004, 0.5, 1.0])
    def test_guide_pick_is_searchsorted_at_every_edge(self, divergence):
        # Random draws almost never land on a bound or a bucket edge, so
        # the pick is tested there directly.  At divergence 0.5 every
        # machine weight is equal.
        top = LEXICON_SIZE - 1
        cum = _zipf_cumulative([(1.0 - divergence) * i + divergence * (top - i)
                                for i in range(LEXICON_SIZE)])
        bounds = np.array(cum[:-1])
        total = cum[-1] + 0.0
        edges = np.arange(GUIDE_BUCKETS + 1) * (total / GUIDE_BUCKETS)
        marks = np.concatenate([bounds, edges])
        x = np.concatenate([marks, np.nextafter(marks, -np.inf),
                            np.nextafter(marks, np.inf),
                            [0.0, (1 - 2**-53) * total, total]])
        x = x[(x >= 0.0) & (x <= total)]
        expected = np.searchsorted(bounds, x, side="right")
        assert np.array_equal(_guide_picker(cum[:-1], total)(x), expected)

    def test_zero_divergence_classes_indistinguishable(self):
        # identical generators: class word distributions match closely
        corpus = synth_corpus(200, seed=3, divergence=0.0)
        human = [t for t, y in zip(corpus.texts, corpus.labels) if y == 0]
        machine = [t for t, y in zip(corpus.texts, corpus.labels) if y == 1]
        top_h = max(set(" ".join(human).split()), key=" ".join(human).split().count)
        top_m = max(set(" ".join(machine).split()),
                    key=" ".join(machine).split().count)
        assert top_h == top_m
