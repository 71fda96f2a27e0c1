"""The compiled loop's object kept across processes: ``native.library``
loads it from ``$XDG_CACHE_HOME/instab``, named by the CRC-32 and Adler-32
of the C source, the compiler's real path, size and mtime and the flags,
builds it there where it is missing or not fit to load, and builds it in a
temporary directory wherever the cache cannot be used. No case changes a
byte of a report."""

import ctypes
import functools
import os
import shutil
import subprocess
import sys
import tempfile
import types
import zlib

import pytest
from click.testing import CliRunner

from instab import native
from instab.cli import main

pytestmark = pytest.mark.skipif(shutil.which("cc") is None,
                                reason="no C compiler on PATH")

SWEEP = ["sweep", "stable-magnetic-plane", "--eps", "0.1"]
# the sweep, after asserting whether the process loads the loop (argv[1])
_SWEEP = ("import sys\n"
          "from instab import cli, native\n"
          "assert (native.library() is not None) == (sys.argv[1] == 'C')\n"
          "cli.main(sys.argv[2:])\n")


def _command(loaded):
    return [sys.executable, "-c", _SWEEP, "C" if loaded else "Python", *SWEEP]


def _sweep(loaded=True, **env):
    """SWEEP's report from a fresh process with ``env`` over this one's,
    which exits 0 with nothing on stderr, having loaded the loop or not;
    under a umask that leaves what ``cc`` writes group-writable."""
    result = subprocess.run(_command(loaded), capture_output=True, text=True,
                            timeout=120, env={**os.environ, **env},
                            umask=0o002)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def python_bytes():
    """SWEEP's report with no compiler on PATH."""
    return _sweep(loaded=False, PATH="/nonexistent")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """XDG_CACHE_HOME in ``tmp_path``, its objects in ``cache.dir``, and
    first on PATH a ``cc`` that appends its arguments to ``cache.log``, a
    line a call, then runs the real one; temporary directories are made in
    ``cache.tmp``, and a regular file is at ``cache.file``."""
    bin_dir, tmp = tmp_path / "bin", tmp_path / "tmp"
    bin_dir.mkdir()
    tmp.mkdir()
    log = tmp_path / "cc.log"
    log.touch()
    wrapper = bin_dir / "cc"
    wrapper.write_text(f'#!/bin/sh\necho "$*" >> "{log}"\n'
                       f'exec "{shutil.which("cc")}" "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    (tmp_path / "file").touch()
    return types.SimpleNamespace(dir=tmp_path / "cache" / "instab", log=log,
                                 tmp=tmp, file=tmp_path / "file")


def _builds(cache):
    """How many times ``cc`` was called: each call is a build."""
    return len(cache.log.read_text().splitlines())


def _key():
    compiler = os.path.realpath(shutil.which("cc"))
    status = os.stat(compiler)
    key = repr((native.source(), compiler, status.st_size,
                status.st_mtime_ns, native.COMPILE)).encode()
    return f"{zlib.crc32(key):08x}{zlib.adler32(key):08x}"


def test_a_cold_call_writes_one_object_named_by_its_key(cache):
    assert native.library.__wrapped__() is not None
    assert [p.name for p in cache.dir.iterdir()] == [f"dop853-{_key()}.so"]
    assert _builds(cache) == 1
    assert list(cache.tmp.iterdir()) == []


def test_a_second_process_loads_the_object_without_building(
        cache, python_bytes):
    assert _sweep() == python_bytes
    (obj,) = cache.dir.iterdir()
    before = obj.stat()
    assert _sweep() == python_bytes
    after = obj.stat()
    assert list(cache.dir.iterdir()) == [obj]
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)
    assert _builds(cache) == 1


def test_an_object_of_garbage_is_rebuilt_and_the_run_keeps_its_bits(
        cache, python_bytes):
    assert _sweep() == python_bytes
    (obj,) = cache.dir.iterdir()
    obj.write_bytes(b"garbage")
    assert _sweep() == python_bytes
    assert _builds(cache) == 2
    assert list(cache.dir.iterdir()) == [obj]
    assert obj.read_bytes() != b"garbage"
    assert _sweep() == python_bytes
    assert _builds(cache) == 2


def test_a_cache_under_a_regular_file_builds_in_a_temporary_directory(
        cache, monkeypatch, python_bytes):
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache.file / "cache"))
    assert native.library.__wrapped__() is not None
    assert _sweep() == python_bytes
    assert _builds(cache) == 2
    assert list(cache.tmp.iterdir()) == []


def test_an_object_that_others_may_write_is_not_loaded(
        cache, monkeypatch, python_bytes):
    assert _sweep() == python_bytes
    (obj,) = cache.dir.iterdir()
    obj.chmod(0o775)  # g+w, which binds even where the test runs as root
    before = obj.stat()
    modes, cdll = [], ctypes.CDLL

    def load(path):
        modes.append(os.stat(path).st_mode)
        return cdll(path)

    monkeypatch.setattr(ctypes, "CDLL", load)
    assert native.library.__wrapped__() is not None
    assert modes and not any(mode & 0o022 for mode in modes)
    assert _builds(cache) == 2
    after = obj.stat()
    assert after.st_ino != before.st_ino and not after.st_mode & 0o022
    assert _sweep() == python_bytes
    assert _builds(cache) == 2


def test_two_processes_on_an_empty_cache_both_get_a_working_loop(
        cache, python_bytes):
    processes = [subprocess.Popen(_command(True), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
    outputs = [process.communicate(timeout=120) for process in processes]
    assert [process.returncode for process in processes] == [0, 0]
    assert outputs == [(python_bytes, "")] * 2
    assert [p.name for p in cache.dir.iterdir()] == [f"dop853-{_key()}.so"]


def test_no_usable_directory_leaves_python_to_step(
        cache, monkeypatch, python_bytes):
    """Neither the cache, under a regular file, nor a temporary directory
    can be made: no loop, and the sweep exits 0 with Python's bytes."""
    def refuse(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setenv("XDG_CACHE_HOME", str(cache.file / "cache"))
    monkeypatch.setattr(native, "TemporaryDirectory", refuse)
    monkeypatch.setattr(native, "library",
                        functools.cache(native.library.__wrapped__))
    assert native.library() is None
    result = CliRunner().invoke(main, SWEEP)
    assert result.exit_code == 0 and result.stdout == python_bytes
    assert result.stderr == ""


@pytest.mark.parametrize("failure", ["exits 1", "times out"])
def test_a_failed_build_leaves_python_to_step(cache, tmp_path, monkeypatch,
                                              failure):
    """A ``cc`` that fails or times out builds nothing, in the cache or in
    a temporary directory, and ``library`` gives None."""
    if failure == "exits 1":
        failing = tmp_path / "failing"
        failing.mkdir()
        (failing / "cc").write_text("#!/bin/sh\nexit 1\n")
        (failing / "cc").chmod(0o755)
        monkeypatch.setenv("PATH",
                           f"{failing}{os.pathsep}{os.environ['PATH']}")
    else:
        def slow(args, **kwargs):
            raise subprocess.TimeoutExpired(args, kwargs["timeout"])

        monkeypatch.setattr(subprocess, "run", slow)
    assert native.library.__wrapped__() is None
    assert list(cache.dir.iterdir()) == [] and list(cache.tmp.iterdir()) == []
