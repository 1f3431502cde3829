"""Artifact files: byte fingerprints, blob size checks, atomic writes, one opener of files."""
import ast
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

import sbaformer
from sbaformer.artifacts import atomic_open, write_blob, write_json, write_jsonl
from sbaformer.cli import main
from sbaformer.data import load_series, save_series
from sbaformer.errors import HeaderMismatchError
from sbaformer.model import ModelConfig, init_params, load_checkpoint, save_checkpoint


TINY = ModelConfig(n=6, t=3, c=1, f=2, d_model=4, l=1, heads=2, p0=2, k_pe=2)


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestFingerprints:
    """Literal hashes from before the artifacts module: every file keeps its bytes."""

    def test_checkpoint_bytes(self, tmp_path):
        save_checkpoint(tmp_path / "ckpt", init_params(TINY, seed=3), TINY, seed=3)
        assert sha(tmp_path / "ckpt.bin") == (
            "9e7867ba0d2d8b95eca3eee053956842847674d4b0adabdb480678dd46b6c270"
        )
        assert sha(tmp_path / "ckpt.json") == (
            "0fc81d5ba3f3572aa9f8efbacd85dd15037732aaae00595dbe8cf3c67c9b1e8b"
        )

    def test_series_bytes(self, tmp_path):
        series = np.random.default_rng(0).standard_normal((3, 5, 2))
        save_series(tmp_path / "s.bin", series, "bin", freq_minutes=5, name="toy")
        save_series(tmp_path / "s.csv", series, "csv")
        assert sha(tmp_path / "s.bin") == (
            "84b131451eb95da6467ff1d612859067e49c35d32056bdf0a389886eaf678ad4"
        )
        assert sha(tmp_path / "s.json") == (
            "8e9773c59518c728391742a2775530ea35eb7a2ba9b9a9732d03b66da253207c"
        )
        assert sha(tmp_path / "s.csv") == (
            "590b0092b8e2c366e72966f4bd2057fdf774c3dacdfc642139ec35e9a31c709e"
        )

    def test_attention_dump_bytes(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "data"), "--nodes", "9",
                     "--steps", "60", "--seed", "1"]) == 0
        config = ModelConfig(n=9, t=4, c=1, f=2, d_model=8, l=2, heads=2, p0=2, k_pe=2)
        save_checkpoint(tmp_path / "ckpt", init_params(config, seed=0), config, seed=0)
        data = tmp_path / "data"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "data": {"series": str(data / "series.bin"), "graph": str(data / "graph.csv"),
                     "coords": str(data / "coords.csv")},
            "partition": {"p0": 2},
            "model": {"d_model": 8, "l": 2, "heads": 2, "t": 4, "f": 2},
            "pe": {"k": 2},
            "paths": {"out_dir": str(tmp_path / "out")},
        }))
        assert main(["dump-attention", "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "ckpt"), "--window", "1", "--out-dir",
                     str(tmp_path / "attn")]) == 0
        files = sorted((tmp_path / "attn").iterdir())
        assert [f.name for f in files] == [
            f"block{b}_{kind}.{ext}"
            for b in (0, 1) for kind in ("inter", "intra") for ext in ("bin", "json")
        ]
        digest = hashlib.sha256()
        for f in files:
            digest.update(f.name.encode() + f.read_bytes())
        assert digest.hexdigest() == (
            "53c475835f6740560262ed075a3f6bc8f5e71285934588db1b022e5782417744"
        )


def _series_pair(tmp_path):
    save_series(tmp_path / "s.bin", np.random.default_rng(5).standard_normal((2, 3, 1)))
    return tmp_path / "s.bin", lambda: load_series(tmp_path / "s.bin")


def _checkpoint_pair(tmp_path):
    save_checkpoint(tmp_path / "ckpt", init_params(TINY, seed=0), TINY)
    return tmp_path / "ckpt.bin", lambda: load_checkpoint(tmp_path / "ckpt")


PAIRS = {"series": _series_pair, "checkpoint": _checkpoint_pair}


def _json_file(tmp_path, kind):
    """(blob sidecar, its loader)."""
    blob, load = PAIRS[kind](tmp_path)
    return blob.with_suffix(".json"), load


class TestBlobs:
    @pytest.mark.parametrize("kind, cut", [(k, c) for k in PAIRS for c in (-8, 3, 8)])
    def test_wrong_blob_size(self, tmp_path, kind, cut):
        # 3 trailing bytes are a partial value, not a blob of the right size
        blob, load = PAIRS[kind](tmp_path)
        load()
        data = blob.read_bytes()
        blob.write_bytes(data[:cut] if cut < 0 else data + bytes(cut))
        held, tail = divmod(len(data) + cut, 8)
        tail = f" and {tail} bytes" if tail else ""
        with pytest.raises(
            HeaderMismatchError,
            match=f"{blob}: payload holds {held} values{tail}, sidecar implies {len(data) // 8}",
        ):
            load()

    @pytest.mark.parametrize("kind", ["checkpoint"])
    def test_truncated_json(self, tmp_path, kind):
        path, load = _json_file(tmp_path, kind)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(HeaderMismatchError, match=f"{path}: not valid JSON"):
            load()

    @pytest.mark.parametrize("kind, key", [("checkpoint", "total"), ("checkpoint", "config"),
                                           ("series", "name")])
    def test_json_missing_key(self, tmp_path, kind, key):
        path, load = _json_file(tmp_path, kind)
        load()
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(HeaderMismatchError, match=f"{path}: missing key '{key}'"):
            load()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["config"].update(bogus=1),
        lambda doc: doc["config"].pop("n"),
        lambda doc: doc["tensors"][0].update(offset=None),
    ], ids=["unknown-config-key", "missing-config-key", "null-offset"])
    def test_checkpoint_bad_manifest_value(self, tmp_path, edit):
        path, load = _json_file(tmp_path, "checkpoint")
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(HeaderMismatchError, match=f"{path}: malformed value"):
            load()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_token(self, tmp_path, token):
        path, load = _json_file(tmp_path, "series")
        doc = json.loads(path.read_text())
        doc["freq_minutes"] = "@"
        path.write_text(json.dumps(doc).replace('"@"', token))
        with pytest.raises(HeaderMismatchError,
                           match=f"{path}: malformed value \\({token} is not a JSON number"):
            load()

    def test_checkpoint_tensors_own_their_arrays(self, tmp_path):
        _, load = _checkpoint_pair(tmp_path)
        params, _, _ = load()
        assert all(t.data.flags.owndata for _, t in params.named())

    def test_series_path_without_bin_names_the_stem(self, tmp_path):
        series = np.arange(6.0).reshape(2, 3, 1)
        save_series(tmp_path / "s.dat", series)
        assert sorted(os.listdir(tmp_path)) == ["s.dat.bin", "s.dat.json"]
        loaded, _ = load_series(tmp_path / "s.dat")
        assert np.array_equal(loaded, series)


class TestAtomicWrites:
    def test_interrupted_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="interrupted"):
            with atomic_open(path) as fh:
                fh.write('{"a": ')
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_interrupted_blob_keeps_previous_pair(self, tmp_path):
        write_blob(tmp_path / "x", [np.arange(4.0)], {"n": 4})
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError):
            write_blob(tmp_path / "x", [np.ones(8), "not a number"], {"n": 8})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_writers_refuse_non_finite_numbers(self, tmp_path, value):
        write_json(tmp_path / "doc.json", {"a": 1})
        for write in (write_json, write_jsonl):
            with pytest.raises(ValueError, match="not JSON compliant"):
                write(tmp_path / "doc.json", [{"a": value}])
        assert os.listdir(tmp_path) == ["doc.json"]
        assert json.loads((tmp_path / "doc.json").read_text()) == {"a": 1}

    def test_interrupted_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with atomic_open(tmp_path / "new.bin", "wb") as fh:
                fh.write(b"\0" * 16)
                raise KeyboardInterrupt
        assert os.listdir(tmp_path) == []


NUMPY_FILE_READERS = {"fromfile", "load", "loadtxt", "genfromtxt", "memmap"}


def _file_calls(tree):
    """Line numbers of open(...) calls and of numpy calls that read a file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            yield node.lineno
        elif (isinstance(func, ast.Attribute) and func.attr in NUMPY_FILE_READERS
              and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
            yield node.lineno


def test_only_artifacts_opens_files():
    src = Path(sbaformer.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "artifacts.py"
        for lineno in _file_calls(ast.parse(path.read_text()))
    ]
    assert offenders == []
    assert list(_file_calls(ast.parse((src / "artifacts.py").read_text())))


def _unused_imports(tree):
    """(line, name) of each name a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_an_unused_name():
    src = Path(sbaformer.__file__).parent
    offenders = [
        f"{path.name}:{line} {name}"
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert offenders == []


def _unreferenced_private_defs(trees):
    """(module, line, name) of each top-level private function or class that
    no other top-level statement of the package names."""
    names_in = {}  # (module, statement index) -> names it reads or calls
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            names_in[module, i] = {
                getattr(node, "id", None) or getattr(node, "attr", None)
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
    return sorted(
        (module, stmt.lineno, stmt.name)
        for module, tree in trees.items()
        for i, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not any(stmt.name in names for key, names in names_in.items() if key != (module, i))
    )


def test_no_private_definition_is_left_unused():
    src = Path(sbaformer.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    offenders = [
        f"{module}:{line} {name}" for module, line, name in _unreferenced_private_defs(trees)
    ]
    assert offenders == []


def _working_set_names(tree):
    """Line numbers where code names autodiff's attention chunker
    (`_pieces`) or one of its `_*_BYTES` budgets, by name, by attribute of
    the imported module or by import. Docstrings are strings, not names."""
    helpers = {"_pieces"}

    def budget(name):
        return name.startswith("_") and name.endswith("_BYTES")

    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
               if alias.name.split(".")[-1] == "autodiff"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
            yield from (node.lineno for a in node.names if a.name in helpers or budget(a.name))
        elif isinstance(node, ast.Name) and node.id in helpers:
            yield node.lineno
        elif isinstance(node, ast.Attribute) and (node.attr in helpers or (
                budget(node.attr) and getattr(node.value, "id", None) in modules)):
            yield node.lineno


def test_predict_cuts_by_cover_and_only_autodiff_names_its_budgets():
    # working sets are cut by one rule, autodiff's `_cover`: `predict` takes
    # its tiles from it under its own activation budget, without reaching
    # into autodiff's budgets or its attention chunker
    src = Path(sbaformer.__file__).parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        if path.name != "autodiff.py"
        for line in _working_set_names(ast.parse(path.read_text()))
    ]
    assert offenders == []
    assert list(_working_set_names(ast.parse((src / "autodiff.py").read_text())))
    model = ast.parse((src / "model.py").read_text())
    assert "_cover" in {node.id for node in ast.walk(model) if isinstance(node, ast.Name)}
    caught = ast.parse('"""ad._FFN_BAND_BYTES in prose"""\nfrom . import autodiff as ad\n'
                       "a = ad._ATTN_TILE_BYTES\nb = ad._pieces\n"
                       "from .autodiff import _WINDOW_TILE_BYTES\n_TILE_BYTES = 1\n"
                       "c = ad._cover\n")
    assert sorted(_working_set_names(caught)) == [3, 4, 5]


def _absolute_self_imports(tree):
    """Line numbers of `import sbaformer...` and `from sbaformer... import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "sbaformer" for name in names):
            yield node.lineno


def test_the_package_imports_itself_by_relative_imports_only():
    # an absolute `sbaformer` import would bind whichever checkout comes
    # first on the path when two trees are imported side by side
    src = Path(sbaformer.__file__).parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in _absolute_self_imports(ast.parse(path.read_text()))
    ]
    assert offenders == []
    caught = ast.parse("import numpy, sbaformer.model\nfrom sbaformer import cli\n"
                       "from . import model\nfrom .autodiff import Tensor\n"
                       "import sbaformer_extra\nfrom sbaformer.data import load_series\n")
    assert list(_absolute_self_imports(caught)) == [1, 2, 6]


def _public_defs(body):
    """Public functions and classes of a statement list, and the public
    methods of its classes."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not stmt.name.startswith("_"):
                yield stmt
            if isinstance(stmt, ast.ClassDef):
                yield from _public_defs(stmt.body)


def test_every_public_definition_has_a_program_caller():
    """Each public definition is named by the package, a demo or a
    benchmark workload; tests alone do not keep code alive."""
    src = Path(sbaformer.__file__).parent
    root = Path(__file__).resolve().parent.parent
    programs = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    programs += sorted((root / "demos").rglob("*.py"))
    programs += [path for path in sorted((root / "perfbench").rglob("*.py"))
                 if root / "perfbench" / "tests" not in path.parents]
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for path in programs
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    offenders = [
        f"{path.name}:{fn.lineno} {fn.name}"
        for path in sorted(src.glob("*.py"))
        for fn in _public_defs(ast.parse(path.read_text()).body)
        if fn.name not in named
    ]
    assert offenders == []


def _defaulted_parameters(tree):
    """(function, line, parameter, position) of each defaulted parameter of
    a module's functions and its classes' methods. Calls name a class's
    __init__ by the class, and the position skips `self` and `cls`; it is
    None for a keyword-only parameter."""
    for stmt in tree.body:
        methods = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for fn in methods:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = stmt.name if fn.name == "__init__" else fn.name
            bound = fn is not stmt and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list
            )
            positional = fn.args.posonlyargs + fn.args.args
            for i in range(len(positional) - len(fn.args.defaults), len(positional)):
                yield name, fn.lineno, positional[i].arg, i - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, fn.lineno, arg.arg, None


def _passed_arguments(tree):
    """(callee name, position or keyword) of each argument a call passes.
    `run.stage(fn, *args)` and `run.op(label, fn, *args)` call fn with
    args; a position after a starred argument is unknown and not counted."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute) and func.attr in ("stage", "op"):
            at = 0 if func.attr == "stage" else 1
            func, args = args[at], args[at + 1:]
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                break
            yield name, i
        for keyword in node.keywords:
            if keyword.arg is not None:
                yield name, keyword.arg


def test_every_defaulted_parameter_is_passed_by_a_program():
    """A default that no command, demo or benchmark workload overrides is
    a constant; keep it one."""
    src = Path(sbaformer.__file__).parent
    root = Path(__file__).resolve().parent.parent
    programs = sorted(src.glob("*.py")) + sorted((root / "demos").rglob("*.py"))
    programs += [path for path in sorted((root / "perfbench").rglob("*.py"))
                 if root / "perfbench" / "tests" not in path.parents]
    passed = {call for path in programs
              for call in _passed_arguments(ast.parse(path.read_text()))}
    offenders = [
        f"{path.name}:{line} {fn}({param})"
        for path in sorted(src.glob("*.py"))
        for fn, line, param, position in _defaulted_parameters(ast.parse(path.read_text()))
        if (fn, param) not in passed and (fn, position) not in passed
    ]
    assert offenders == []


def _unread_locals(tree):
    """(line, function, name) of each local a function assigns and never reads.

    Reads in nested functions and comprehensions count; names starting with
    `_` and names declared `global` or `nonlocal` are exempt.
    """
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read, declared = {}, set(), set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        found.update(
            (line, fn.name, name)
            for name, line in stored.items()
            if not name.startswith("_") and name not in read and name not in declared
        )
    return sorted(found)


def test_no_function_assigns_an_unread_local():
    src = Path(sbaformer.__file__).parent
    offenders = [
        f"{path.name}:{line} {fn} {name}"
        for path in sorted(src.glob("*.py"))
        for line, fn, name in _unread_locals(ast.parse(path.read_text()))
    ]
    assert offenders == []


ENVIRONMENT_NAMES = {"environ", "getenv", "putenv"}


def _environment_reads(tree):
    """Line numbers of each os.environ, os.getenv and os.putenv use, and of
    each `from os import` of one of them."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
            alias.name in ENVIRONMENT_NAMES for alias in node.names
        ):
            yield node.lineno


def test_no_module_reads_the_environment():
    # budgets such as the tile sizes stay module constants, never env knobs
    src = Path(sbaformer.__file__).parent
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in _environment_reads(ast.parse(path.read_text()))
    ]
    assert offenders == []
