from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconfig.corpus import (
    CorpusStore,
    MethodSig,
    TypeDef,
    TypeKind,
    TypeRef,
    VersionTag,
    load_corpus,
    parse_typedef,
    serialize_typedef,
    write_corpus,
)
from reconfig.errors import AmbiguousVersion, DuplicateTypeDef, MalformedTypeDef, NotFound

from conftest import corpus_path


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


# --- loading ----------------------------------------------------------------

def test_fixture_corpus_loads_all_five_units():
    store = load_corpus(corpus_path("hello"))
    assert len(store) == 5
    for name, version in [("Service", "1.0"), ("Request", "1.0"), ("ClientImpl", "1.0"),
                          ("ServerImpl", "2.0"), ("java.lang.Runnable", "0")]:
        assert (name, VersionTag(version)) in store


def test_empty_directory_gives_empty_store(tmp_path):
    assert len(load_corpus(tmp_path)) == 0


def test_duplicate_name_version_across_files_is_an_error(tmp_path):
    td = _typedef("Request", "1.0")
    write_corpus(tmp_path / "a", [td])
    write_corpus(tmp_path / "b", [td])
    with pytest.raises(DuplicateTypeDef):
        load_corpus(tmp_path)


def test_unknown_key_is_malformed(tmp_path):
    (tmp_path / "X-1.typedef").write_text(
        "name: X\nversion: 1\nkind: class\ncolor: red\n")
    with pytest.raises(MalformedTypeDef, match="unknown key"):
        load_corpus(tmp_path)


def test_filename_must_match_declared_identity(tmp_path):
    (tmp_path / "Y-1.typedef").write_text("name: X\nversion: 1\nkind: class\n")
    with pytest.raises(MalformedTypeDef, match="file name"):
        load_corpus(tmp_path)


def test_missing_keys_and_bad_kind_rejected():
    with pytest.raises(MalformedTypeDef, match="missing key"):
        parse_typedef("name: X\nkind: class\n", "p")
    with pytest.raises(MalformedTypeDef, match="interface or class"):
        parse_typedef("name: X\nversion: 1\nkind: enum\n", "p")
    with pytest.raises(MalformedTypeDef, match="bad method"):
        parse_typedef("name: X\nversion: 1\nkind: class\nmethod: nope\n", "p")


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
