"""Golden load outcomes: mutated corpora must load, or fail, exactly as recorded.

Each case is a copy of one fixture corpus. In four cases of five, one typedef
carries 1 to 3 seeded byte-level edits: a byte replaced by, or a token
inserted before it, from a pool of non-UTF-8 bytes, CR/CRLF and U+2028 line
ends, colons, ``@`` and other grammar characters. One case in four also
copies a typedef under ``d-e/`` (and sometimes ``d/``), so duplicates and
their order are exercised.
A few hand-built layouts follow the mutated cases: a directory named
``d.typedef``, a dotfile, an upper-case suffix, symlinks to a directory and
to files, and nesting three deep. A case's outcome is one line:

- ``ok <count> <sha256>`` over the repr of the store's entries;
- ``<ErrorClass> [<named files>] <message>`` for a rejected corpus, with the
  case directory's prefix stripped from the message and the named files.

The recorded file pins every error class, message and named file. To
regenerate it (only when a loader change is meant to alter outcomes)::

    PYTHONPATH=src python tests/test_corpus_golden.py > tests/fixtures/golden/corpus_outcomes.txt
"""

from __future__ import annotations

import hashlib
import random
import shutil
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden" / "corpus_outcomes.txt"

SEED = 0xC0A
CASES = 480
POOL = [b"\xff", b"\xc3", b"\xe2\x80", b"\x80", b"\r", b"\r\n", b"\n", b"\xe2\x80\xa8",
        b":", b": ", b"@", b" ", b".", b"x", b"1", b"(", b")", b",", b"-"]

SOURCES = sorted(p for p in (FIXTURES / "corpora").iterdir() if p.is_dir())
HELLO = FIXTURES / "corpora" / "hello"


def _mutate(rng: random.Random, data: bytes) -> bytes:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(data))
        data = data[:pos] + rng.choice(POOL) + data[pos + rng.randint(0, 1):]
    return data


def _mutated_case(rng: random.Random, root: Path) -> None:
    source = rng.choice(SOURCES)
    shutil.copytree(source, root)
    files = sorted(root.iterdir())
    if rng.random() < 0.8:
        victim = rng.choice(files)
        victim.write_bytes(_mutate(rng, victim.read_bytes()))
    if rng.random() < 0.25:
        subs = ["d-e"] + (["d"] if rng.random() < 0.5 else [])
        for sub in subs:
            (root / sub).mkdir()
            twin = rng.choice(files)
            (root / sub / twin.name).write_bytes(twin.read_bytes())


def _outside(root: Path) -> Path:
    """A directory beside the case root, holding a duplicate of ``Service``."""
    target = root.parent / f"{root.name}-outside"
    target.mkdir()
    shutil.copy(HELLO / "Service-1.0.typedef", target)
    return target


def _layout_dir_named_typedef(root: Path) -> None:
    (root / "d.typedef").mkdir()


def _layout_dotfile(root: Path) -> None:
    (root / ".x.typedef").write_bytes(b"name: X\nversion: 1\nkind: class\n")


def _layout_upper_suffix(root: Path) -> None:
    (root / "X.TYPEDEF").write_bytes(b"junk\n")


def _layout_symlinked_dir(root: Path) -> None:
    (root / "linked").symlink_to(_outside(root), target_is_directory=True)


def _layout_symlinked_file(root: Path) -> None:
    (root / "l.typedef").symlink_to(root / "Request-1.0.typedef")


def _layout_symlinked_duplicate(root: Path) -> None:
    (root / "sub").mkdir()
    (root / "sub" / "Service-1.0.typedef").symlink_to(_outside(root) / "Service-1.0.typedef")


def _layout_dangling_symlink(root: Path) -> None:
    (root / "b.typedef").symlink_to(root / "missing")


def _layout_three_deep(root: Path) -> None:
    """``a/b/c/`` is read before ``a-b/``, although ``-`` sorts before ``/``."""
    service = root / "Service-1.0.typedef"
    for sub in ("a-b", "a/b/c"):
        (root / sub).mkdir(parents=True)
        shutil.copy(service, root / sub)
    service.unlink()


def _layout_empty_stem(root: Path) -> None:
    (root / ".typedef").write_bytes((HELLO / "Request-1.0.typedef").read_bytes())


#: Each adds one entry to a copy of the ``hello`` corpus.
LAYOUTS = [_layout_dir_named_typedef, _layout_dotfile, _layout_upper_suffix,
           _layout_symlinked_dir, _layout_symlinked_file, _layout_symlinked_duplicate,
           _layout_dangling_symlink, _layout_three_deep, _layout_empty_stem]


def outcome(root: Path) -> str:
    from reconfig.corpus import load_corpus
    from reconfig.errors import DuplicateTypeDef, MalformedTypeDef, ReconfigError

    try:
        store = load_corpus(root)
    except (ReconfigError, OSError) as exc:
        if isinstance(exc, MalformedTypeDef):
            named = [exc.path]
        elif isinstance(exc, DuplicateTypeDef):
            named = [exc.path1, exc.path2]
        else:
            named = []
        files = " ".join(p.relative_to(root).as_posix() for p in named)
        message = str(exc).replace(f"{root}/", "")
        return f"{type(exc).__name__} [{files}] {message}"
    digest = hashlib.sha256(repr(store.entries()).encode()).hexdigest()
    return f"ok {len(store)} {digest}"


def outcomes(base: Path) -> list[str]:
    rng = random.Random(SEED)
    found = []
    for i in range(CASES):
        root = base / f"m{i:03d}"
        _mutated_case(rng, root)
        found.append(outcome(root))
    for layout in LAYOUTS:
        root = base / layout.__name__
        shutil.copytree(HELLO, root)
        layout(root)
        found.append(outcome(root))
    return found


def test_load_outcomes_match_the_golden_file(tmp_path):
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = outcomes(tmp_path)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"case {i}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as base:
        sys.stdout.write("\n".join(outcomes(Path(base))) + "\n")
