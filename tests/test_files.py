import errno
import os
import stat
import threading

import pytest

from llmdetect import files
from llmdetect.cli import main
from llmdetect.errors import CorpusError
from llmdetect.files import write_bytes


class TestWriteBytes:
    """write_bytes writes a regular file whole or not at all, and anything
    else that exists in place."""

    def test_new_file_gets_the_umask_mode(self, tmp_path):
        target = tmp_path / "out.csv"
        write_bytes(target, b"new", CorpusError)
        assert target.read_bytes() == b"new"
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("data", [b"new", [b"n", b"", b"ew"]],
                             ids=["bytes", "chunks"])
    def test_replace_keeps_permission_bits(self, tmp_path, data):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old")
        target.chmod(0o640)
        write_bytes(target, data, CorpusError)
        assert target.read_bytes() == b"new"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_failed_write_leaves_old_file_and_no_temporary(self, tmp_path,
                                                           monkeypatch):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old")

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(files.os, "replace", disk_full)
        with pytest.raises(CorpusError, match=r"^cannot write .*out\.csv: "
                                              r"No space left on device$"):
            write_bytes(target, b"new", CorpusError)
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_unwritable_file_refused_in_place(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old")
        monkeypatch.setattr(files.os, "access", lambda path, how: False)
        with pytest.raises(CorpusError, match="Permission denied"):
            write_bytes(target, b"new", CorpusError)
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CorpusError, match="No such file or directory"):
            write_bytes(tmp_path / "missing" / "out.csv", b"x", CorpusError)

    def test_directory_written_in_place(self, tmp_path):
        with pytest.raises(CorpusError, match="Is a directory"):
            write_bytes(tmp_path, b"x", CorpusError)
        assert os.listdir(tmp_path) == []

    def test_dev_null_never_renamed(self, monkeypatch):
        def refuse(src, dst):
            raise AssertionError(f"renamed {src} to {dst}")

        monkeypatch.setattr(files.os, "replace", refuse)
        write_bytes(os.devnull, b"discarded", CorpusError)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.parametrize("data", [b"through the pipe",
                                      [b"through ", b"the pipe"]],
                             ids=["bytes", "chunks"])
    def test_fifo_written_in_place(self, tmp_path, data):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_bytes(fifo, data, CorpusError)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"through the pipe"]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)

    def test_failing_chunks_leave_old_file_and_no_temporary(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old")

        def chunks():
            yield b"new"
            raise CorpusError("bad row")

        with pytest.raises(CorpusError, match="^bad row$"):
            write_bytes(target, chunks(), CorpusError)
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_symlinked_out_writes_through_the_link(self, tmp_path):
        real = tmp_path / "real"
        real.mkdir()
        (real / "corpus.csv").write_bytes(b"old")
        link = tmp_path / "link.csv"
        link.symlink_to(real / "corpus.csv")
        assert main(["synth", "--n-per-class", "2", "--divergence", "0.5",
                     "--out", str(link)]) == 0
        assert link.is_symlink()
        assert (real / "corpus.csv").read_bytes().startswith(b"id,text,label\n")
        assert sorted(os.listdir(real)) == ["corpus.csv"]
