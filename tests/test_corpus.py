from __future__ import annotations

import copy
import os
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconfig.adl import parse_adl
from reconfig.corpus import (
    CorpusStore,
    MethodSig,
    TypeDef,
    TypeKind,
    TypeRef,
    VersionTag,
    _typedef_files,
    load_corpus,
    parse_typedef,
    serialize_typedef,
    write_corpus,
)
from reconfig.errors import AmbiguousVersion, DuplicateTypeDef, MalformedTypeDef, NotFound

from conftest import adl_path, corpus_path


def _typedef(name, version, kind=TypeKind.CLASS, refs=(), methods=()):
    return TypeDef(name, VersionTag(version), kind,
                   tuple(TypeRef(n, VersionTag(v)) for n, v in refs), tuple(methods))


def _store(*typedefs) -> CorpusStore:
    return CorpusStore(corpus_path("hello"), {(td.name, td.version): td for td in typedefs})


# --- version tags ----------------------------------------------------------

def test_version_ordering_is_numeric_not_textual():
    # oracle: compare integer tuples directly
    texts = ["2.0", "1.0", "1.10"]
    expected = [t for _, t in sorted((tuple(int(p) for p in t.split(".")), t) for t in texts)]
    assert expected == ["1.0", "1.10", "2.0"]
    assert [str(v) for v in sorted(VersionTag(t) for t in texts)] == expected
    # pairs sort naturally as (name, version key), equal versions keeping input order
    pairs = [(n, VersionTag(t)) for t in ["2", "1.10", "1", "1.9", "1.0"] for n in ["b", "a"]]
    by_key = sorted(pairs, key=lambda p: (p[0], p[1].key))
    assert [(n, str(v)) for n, v in sorted(pairs)] == [(n, str(v)) for n, v in by_key]


def test_missing_trailing_components_compare_as_zero():
    assert VersionTag("1") == VersionTag("1.0")
    assert VersionTag("1") == VersionTag("1.0.0")
    assert VersionTag("1.0") < VersionTag("1.0.1")
    assert hash(VersionTag("2")) == hash(VersionTag("2.0"))


@settings(max_examples=200)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=4),
       st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_version_comparison_matches_tuple_oracle(a, b):
    def norm(parts):
        t = tuple(parts)
        while len(t) > 1 and t[-1] == 0:
            t = t[:-1]
        return t

    va, vb = VersionTag(".".join(map(str, a))), VersionTag(".".join(map(str, b)))
    assert (va < vb) == (norm(a) < norm(b))
    assert (va == vb) == (norm(a) == norm(b))


def test_malformed_versions_rejected():
    for text in ("", "1.", ".1", "a", "1.a", "-1"):
        with pytest.raises(ValueError):
            VersionTag(text)


def test_one_tag_per_version_text():
    assert VersionTag("1.0") is VersionTag("1.0")
    one, one_zero = VersionTag("1"), VersionTag("1.0")
    assert one is not one_zero
    assert one == one_zero and hash(one) == hash(one_zero)
    assert (str(one), str(one_zero)) == ("1", "1.0")
    assert {("A", one_zero): "entry"}[("A", one)] == "entry"
    with pytest.raises(AttributeError):
        one.text = "2"
    with pytest.raises(AttributeError):
        del one.key
    assert (one.text, one.key) == ("1", (1,))


def test_a_version_tag_is_the_tuple_of_its_numbers_that_prints_as_its_text():
    assert VersionTag.__hash__ is tuple.__hash__ and VersionTag.__eq__ is tuple.__eq__
    assert VersionTag.__lt__ is tuple.__lt__ and VersionTag.__le__ is tuple.__le__
    tag = VersionTag("1.0")
    assert tag == (1,) and VersionTag("1.2.0") == (1, 2) and hash(tag) == hash((1,))
    assert [str(tag), f"{tag}", format(tag)] == ["1.0"] * 3
    assert repr(tag) == f"{[tag]}"[1:-1] == "VersionTag(text='1.0', key=(1,))"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda tag: pickle.loads(pickle.dumps(tag))])
def test_copies_of_a_tag_are_the_interned_tag(clone):
    for text in ("1.0", "1", "2.10.3"):
        assert clone(VersionTag(text)) is VersionTag(text)
    pair = ("Service", VersionTag("1.0"))
    assert clone(pair)[1] is VersionTag("1.0")


def test_a_malformed_version_raises_on_every_call_and_is_never_kept():
    for _ in range(3):
        with pytest.raises(ValueError, match="malformed version '1.x'"):
            VersionTag("1.x")
    assert "1.x" not in VersionTag._interned


def test_tags_past_the_intern_limit_are_correct_but_not_shared(monkeypatch):
    monkeypatch.setattr(VersionTag, "_INTERN_LIMIT", len(VersionTag._interned))
    # Five parts: no strategy in these tests draws more than four, so no earlier
    # test can have interned this text before the limit was lowered.
    first, second = VersionTag("7.7.7.7.7"), VersionTag("7.7.7.7.7")
    assert first is not second and first == second and hash(first) == hash(second)
    assert "7.7.7.7.7" not in VersionTag._interned


def test_parses_hand_out_shared_tags():
    store = load_corpus(corpus_path("hello_swap"))
    tags = [td.version for td in store.entries()]
    tags += [ref.version for td in store.entries() for ref in td.references if ref.version]
    definition = parse_adl(adl_path("hello_v1.fractal.xml").read_text(encoding="utf-8"))
    tags += [definition.version] + [itf.version for itf in definition.interfaces]
    for comp in definition.components:
        tags += [itf.version for itf in comp.interfaces] + [comp.content[1]]
        tags += [version for _, version in comp.files]
    tags = [tag for tag in tags if tag is not None]
    assert len(tags) > 10
    assert all(tag is VersionTag(tag.text) for tag in tags)


# --- loading ----------------------------------------------------------------

def test_fixture_corpus_loads_all_five_units():
    store = load_corpus(corpus_path("hello"))
    assert len(store) == 5
    for name, version in [("Service", "1.0"), ("Request", "1.0"), ("ClientImpl", "1.0"),
                          ("ServerImpl", "2.0"), ("java.lang.Runnable", "0")]:
        assert (name, VersionTag(version)) in store


def test_empty_directory_gives_empty_store(tmp_path):
    assert len(load_corpus(tmp_path)) == 0


def test_a_root_that_is_no_directory_is_refused(tmp_path):
    (tmp_path / "file.typedef").write_text("name: X\nversion: 1\nkind: class\n")
    for root in (tmp_path / "missing", tmp_path / "file.typedef"):
        with pytest.raises(MalformedTypeDef, match="corpus root is not a readable directory"):
            load_corpus(root)


@pytest.mark.parametrize("entry", ["d.typedef", "x.typedef"], ids=["directory", "dangling-link"])
def test_a_typedef_entry_that_cannot_be_read_raises_what_open_raises(tmp_path, entry):
    write_corpus(tmp_path, [_typedef("A", "1")])
    path = tmp_path / entry
    if entry == "d.typedef":
        path.mkdir()
    else:
        path.symlink_to(tmp_path / "missing")
    with pytest.raises(OSError) as want:
        open(str(path), "rb")
    with pytest.raises(OSError) as got:
        load_corpus(tmp_path)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_duplicate_name_version_across_files_is_an_error(tmp_path):
    # Path order reads a/ before a-b/; string order would not, since "-" < "/".
    td = _typedef("Request", "1.0")
    write_corpus(tmp_path / "a-b", [td])
    write_corpus(tmp_path / "a", [td])
    with pytest.raises(DuplicateTypeDef) as err:
        load_corpus(tmp_path)
    first, second = (tmp_path / sub / "Request-1.0.typedef" for sub in ("a", "a-b"))
    assert (err.value.path1, err.value.path2) == (first, second)
    assert str(err.value) == f"duplicate typedef Request@1.0: {first} and {second}"


def _odd_layout(root):
    """A tree that exercises each listing rule of ``load_corpus``."""
    body = b"name: X\nversion: 1\nkind: class\n"
    for sub in ("a/b/c", "a-b", "d.typedef", "outside/deep"):
        (root / sub).mkdir(parents=True)
    for name in ("a/b/c/X-1.typedef", "a/b/X-1.typedef", "a/X-1.typedef", "a-b/X-1.typedef",
                 ".x.typedef", "X.TYPEDEF", "X-1.typedefs", "d.typedef/X-1.typedef",
                 "outside/deep/X-1.typedef", ".typedef"):
        (root / name).write_bytes(body)
    (root / "linked").symlink_to(root / "outside", target_is_directory=True)
    (root / "linked.typedef").symlink_to(root / "outside" / "deep", target_is_directory=True)
    (root / "l.typedef").symlink_to(root / "a" / "X-1.typedef")


def test_the_listing_matches_rglob_in_path_order(tmp_path, monkeypatch):
    """The corpus listing gives ``rglob("*.typedef")``'s paths in ``Path.parts`` order:
    dotfiles and directories named ``*.typedef`` are listed, ``X.TYPEDEF`` is not,
    and neither symlinked directory is descended into."""
    root = tmp_path / "corpus"
    root.mkdir()
    _odd_layout(root)

    def listings(root_arg):
        want = [str(p) for p in sorted(Path(root_arg).rglob("*.typedef"), key=lambda p: p.parts)]
        got = [path for _, path in _typedef_files(Path(root_arg))]
        return got, want

    got, want = listings(root)
    assert got == want
    assert [os.path.relpath(p, root) for p in got] == [
        ".typedef", ".x.typedef", "a/X-1.typedef", "a/b/X-1.typedef", "a/b/c/X-1.typedef",
        "a-b/X-1.typedef", "d.typedef", "d.typedef/X-1.typedef", "l.typedef", "linked.typedef",
        "outside/deep/X-1.typedef"]
    monkeypatch.chdir(root)
    for root_arg in (".", "a", "a/", "./a/b"):
        got, want = listings(root_arg)
        assert got == want and got, root_arg


def test_unknown_key_is_malformed(tmp_path):
    (tmp_path / "X-1.typedef").write_text(
        "name: X\nversion: 1\nkind: class\ncolor: red\n")
    with pytest.raises(MalformedTypeDef, match="unknown key"):
        load_corpus(tmp_path)


def test_filename_must_match_declared_identity(tmp_path):
    (tmp_path / "Y-1.typedef").write_text("name: X\nversion: 1\nkind: class\n")
    with pytest.raises(MalformedTypeDef, match="file name"):
        load_corpus(tmp_path)


def test_missing_keys_and_bad_kind_rejected(tmp_path):
    with pytest.raises(MalformedTypeDef, match="missing key"):
        parse_typedef("name: X\nkind: class\n", "p")
    with pytest.raises(MalformedTypeDef, match="interface or class"):
        parse_typedef("name: X\nversion: 1\nkind: enum\n", "p")
    with pytest.raises(MalformedTypeDef, match="bad method"):
        parse_typedef("name: X\nversion: 1\nkind: class\nmethod: nope\n", "p")
    base = "name: X\nversion: 1\nkind: class\n"
    for text, reason in [
        ("junk\n" + base, "line 'junk' is not 'key: value'"),
        (base + "name: X\n", "duplicate key name"),
        (base.replace("name: X", "name: 1X"), "malformed name '1X'"),
        (base.replace("version: 1", "version: 1.x"), "malformed version '1.x'"),
        (base + "ref: 1Y\n", "bad ref '1Y': malformed type name '1Y'"),
        (base + "ref: Y@x\n", "bad ref 'Y@x': malformed version 'x'"),
        (base + "method: void f(1a)\n", "bad method 'void f(1a)': malformed parameter type '1a'"),
        (base + "method: 1r f()\n", "bad method '1r f()': malformed return type '1r'"),
    ]:
        with pytest.raises(MalformedTypeDef) as exc:
            parse_typedef(text, "p")
        assert exc.value.reason == reason
    (tmp_path / "X-1.typedef").write_bytes(base.encode() + b"ref: \xff\n")
    with pytest.raises(MalformedTypeDef) as exc:
        load_corpus(tmp_path)
    assert exc.value.reason.startswith("not valid UTF-8: ")


def test_self_reference_rejected():
    with pytest.raises(MalformedTypeDef, match="references itself"):
        parse_typedef("name: X\nversion: 1\nkind: class\nref: X@1\n", "p")


def test_method_parsing_round_trips():
    td = parse_typedef(
        "name: X\nversion: 1\nkind: interface\n"
        "method: void push(Request,Token)\nmethod: Reply pull()\n", "p")
    assert td.methods == (MethodSig("push", ("Request", "Token"), "void"),
                          MethodSig("pull", (), "Reply"))
    assert parse_typedef(serialize_typedef(td), "p") == td


def test_a_method_name_must_be_an_identifier():
    with pytest.raises(ValueError, match="malformed method name '1x'"):
        MethodSig("1x", (), "void")


# --- lookups -----------------------------------------------------------------

def test_versioned_lookup_is_exact():
    store = load_corpus(corpus_path("hello"))
    td = store.lookup(TypeRef("Request", VersionTag("1.0")))
    assert (td.name, str(td.version)) == ("Request", "1.0")
    with pytest.raises(NotFound):
        store.lookup(TypeRef("Request", VersionTag("9.9")))


def test_unversioned_lookup_requires_a_unique_version():
    store = load_corpus(corpus_path("hello"))
    assert store.lookup(TypeRef("Request")).version == VersionTag("1.0")

    both = _store(_typedef("Request", "1.0"), _typedef("Request", "2.0"))
    # oracle: enumerate the index entries matching the name
    matching = sorted(v for n, v in [(td.name, td.version) for td in both.entries()]
                      if n == "Request")
    assert matching == [VersionTag("1.0"), VersionTag("2.0")]
    with pytest.raises(AmbiguousVersion) as exc:
        both.lookup(TypeRef("Request"))
    assert list(exc.value.versions) == matching


def test_versions_listing_sorted_and_empty_for_unknown():
    store = _store(_typedef("Request", "2.0"), _typedef("Request", "1.0"),
                   _typedef("Request", "1.10"))
    assert [str(v) for v in store.versions("Request")] == ["1.0", "1.10", "2.0"]
    assert store.versions("Ghost") == []
    assert [str(v) for v in _store(_typedef("Request", "1.0")).versions("Request")] == ["1.0"]


# --- closure ------------------------------------------------------------------

def _closure_oracle(store: CorpusStore, roots):
    """Independent fixpoint iteration over the reference graph."""
    result = set()
    frontier = [store.lookup(r) for r in roots]
    while frontier:
        td = frontier.pop()
        key = (td.name, td.version)
        if key in result:
            continue
        result.add(key)
        frontier.extend(store.lookup(ref) for ref in td.references)
    return result


def test_closure_interface_drags_exchanged_type():
    store = load_corpus(corpus_path("hello"))
    got = store.closure([TypeRef("Service", VersionTag("1.0"))])
    assert got == {("Service", VersionTag("1.0")), ("Request", VersionTag("1.0"))}


def test_closure_of_no_roots_is_empty():
    assert load_corpus(corpus_path("hello")).closure([]) == set()


def test_closure_terminates_on_cycles():
    store = _store(_typedef("A", "1", refs=[("B", "1")]),
                   _typedef("B", "1", refs=[("A", "1")]))
    roots = [TypeRef("A", VersionTag("1"))]
    got = store.closure(roots)
    assert got == _closure_oracle(store, roots)
    assert got == {("A", VersionTag("1")), ("B", VersionTag("1"))}


def test_closure_matches_bfs_oracle_on_random_corpora():
    rng = random.Random(7)
    for _ in range(50):
        pairs = [(f"T{i}", str(rng.randint(1, 3))) for i in range(rng.randint(1, 20))]
        pairs = list(dict.fromkeys(pairs))
        typedefs = []
        for name, version in pairs:
            others = [p for p in pairs if p != (name, version) or p[0] != name]
            refs = rng.sample(others, k=min(len(others), rng.randint(0, 3)))
            refs = [r for r in refs if not (r[0] == name and r[1] == version)]
            typedefs.append(_typedef(name, version, refs=refs))
        store = _store(*typedefs)
        roots = [TypeRef(n, VersionTag(v))
                 for n, v in rng.sample(pairs, k=rng.randint(0, len(pairs)))]
        assert store.closure(roots) == _closure_oracle(store, roots)


def test_closure_is_monotone():
    rng = random.Random(11)
    for _ in range(30):
        pairs = [(f"T{i}", "1") for i in range(rng.randint(2, 12))]
        typedefs = []
        for name, version in pairs:
            others = [p for p in pairs if p[0] != name]
            refs = rng.sample(others, k=min(len(others), rng.randint(0, 2)))
            typedefs.append(_typedef(name, version, refs=refs))
        store = _store(*typedefs)
        big = rng.sample(pairs, k=rng.randint(1, len(pairs)))
        small = rng.sample(big, k=rng.randint(0, len(big)))
        c_small = store.closure([TypeRef(n, VersionTag(v)) for n, v in small])
        c_big = store.closure([TypeRef(n, VersionTag(v)) for n, v in big])
        assert c_small <= c_big


def test_closure_error_carries_the_reference_chain():
    store = _store(_typedef("A", "1", refs=[("B", "1")]),
                   _typedef("B", "1", refs=[("Ghost", "1")]))
    with pytest.raises(NotFound) as exc:
        store.closure([TypeRef("A", VersionTag("1"))])
    assert exc.value.name == "Ghost"
    assert list(exc.value.chain) == ["A@1", "B@1"]


# --- memoized single-root closures ------------------------------------------------

def _helper_chain_store(rng: random.Random) -> CorpusStore:
    """Implementations, each at two versions, over chains of private helpers
    that sometimes point back up the chain or into a shared type."""
    typedefs = [_typedef("Shared", "1.0")]
    for i in range(rng.randint(1, 6)):
        for version in ("1.0", "2.0"):
            depth = rng.randint(1, 4)
            helpers = [(f"H{i}_{k}", version) for k in range(depth)]
            for k, (name, _) in enumerate(helpers):
                refs = helpers[k + 1:k + 2]
                if k and rng.random() < 0.3:
                    refs.append(helpers[rng.randrange(k)])
                if rng.random() < 0.3:
                    refs.append(("Shared", "1.0"))
                typedefs.append(_typedef(name, version, refs=refs))
            typedefs.append(_typedef(f"Impl{i}", version, refs=helpers[:1]))
    return _store(*typedefs)


def test_the_memoized_closure_of_every_pair_equals_a_fresh_walk():
    rng = random.Random(5)
    stores = [load_corpus(path) for path in sorted(corpus_path("hello").parent.iterdir())]
    stores += [_helper_chain_store(rng) for _ in range(20)]
    for store in stores:
        for td in store.entries():
            pair = (td.name, td.version)
            memo = store.closure_of(pair)
            assert memo == tuple(sorted(store.closure([TypeRef(*pair)])))
            assert store.closure_of(pair) is memo


def test_a_failing_root_raises_the_same_error_every_time():
    store = _store(_typedef("A", "1", refs=[("B", "1")]),
                   _typedef("B", "1", refs=[("Ghost", "1")]),
                   _typedef("C", "1"), _typedef("C", "2"),
                   TypeDef("D", VersionTag("1"), TypeKind.CLASS, (TypeRef("C"),), ()))
    cases = [("A", NotFound, ("A@1", "B@1")), ("D", AmbiguousVersion, ("D@1",))]
    for name, error, chain in cases:
        raised = []
        for _ in range(2):
            with pytest.raises(error) as exc:
                store.closure_of((name, VersionTag("1")))
            raised.append((exc.value.chain, str(exc.value)))
        assert raised[0] == raised[1] and raised[0][0] == chain


# --- the walk against a walk that carries every chain --------------------------------

def _chain_carrying_closure(store: CorpusStore, roots) -> set:
    """The oracle: each reference carries the whole chain of pairs that led to it,
    built as it is pushed, and ``lookup`` gets that chain on every call."""
    seen = set()
    work = [(r, ()) for r in roots]
    while work:
        ref, chain = work.pop()
        td = store.lookup(ref, chain)
        key = (td.name, td.version)
        if key in seen:
            continue
        seen.add(key)
        next_chain = chain + (f"{td.name}@{td.version}",)
        work.extend((sub, next_chain) for sub in td.references)
    return seen


_NAMES = ("A", "B", "C", "Ghost")
_VERSIONS = ("1", "1.0", "2")


@st.composite
def _walk_cases(draw):
    """A small corpus, with cycles, unversioned references and missing and
    ambiguous targets, and a list of roots over it."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(_NAMES[:-1]), st.sampled_from(_VERSIONS)),
                          min_size=1, max_size=6, unique_by=lambda p: (p[0], VersionTag(p[1]))))
    ref = st.one_of(st.sampled_from(pairs),
                    st.tuples(st.sampled_from(_NAMES), st.sampled_from(_VERSIONS + (None,))))
    typedefs = []
    for name, version in pairs:
        refs = draw(st.lists(ref.filter(lambda r: r[0] != name or r[1] is None
                                        or VersionTag(r[1]) != VersionTag(version)),
                             max_size=3))
        typedefs.append(TypeDef(name, VersionTag(version), TypeKind.CLASS,
                                tuple(TypeRef(n, v and VersionTag(v)) for n, v in refs), ()))
    roots = [TypeRef(n, v and VersionTag(v)) for n, v in draw(st.lists(ref, min_size=1, max_size=3))]
    return _store(*typedefs), roots


def _outcome(walk, store, roots):
    try:
        return "ok", walk(store, roots)
    except (NotFound, AmbiguousVersion) as exc:
        return type(exc), str(exc), exc.chain


@settings(max_examples=200, deadline=None)
@given(_walk_cases())
def test_the_walk_returns_and_raises_as_a_walk_carrying_every_chain(case):
    store, roots = case
    assert _outcome(CorpusStore.closure, store, roots) \
        == _outcome(_chain_carrying_closure, store, roots)


# --- round trip ----------------------------------------------------------------

def test_reserializing_a_corpus_reloads_identically(tmp_path):
    original = load_corpus(corpus_path("hello_swap"))
    write_corpus(tmp_path, original.entries())
    reloaded = load_corpus(tmp_path)
    assert reloaded.entries() == original.entries()


def test_loading_is_independent_of_directory_layout(tmp_path):
    entries = load_corpus(corpus_path("hello")).entries()
    write_corpus(tmp_path / "deep" / "nested", entries[:2])
    write_corpus(tmp_path, entries[2:])
    assert load_corpus(tmp_path).entries() == entries
