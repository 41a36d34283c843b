"""Every name a library module imports is used in that module, and every
private name it defines is read in it.

A stdlib ``ast`` walk stands in for a linter: a module's bound import names
must each appear as a name somewhere in its code.  The package
``__init__.py`` files only re-export, so they are skipped there.  A
module-level private function, class or constant (``_name``, dunders
exempt) must be read somewhere in its own module, or it is dead.  The
same walk lists every call site that can reach BLAS, and every sort of
keys on the text path, and pins the names the package exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "llmdetect"
ALL_MODULES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not dunder:
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read]


def _module_id(path):
    return str(path.relative_to(SRC))


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    assert unused_imports("import csv\nimport io as stream\n"
                          "from x import y, z\nz()\n") == [
        "line 1: csv", "line 2: stream", "line 3: y"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=_module_id)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unread_private_name():
    assert unread_private_names(
        "__all__ = []\n_A, _B = 1, 2\n_C: int = 3\n"
        "def _used(): return _A\ndef _dead(): _used()\n"
        "class _Dead: pass\n_C = 4\n") == [
        "line 2: _B", "line 3: _C", "line 5: _dead", "line 6: _Dead"]


# numpy entry points that can hand a product or a sum of products to BLAS
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}


def call_sites(source: str, module: str, label) -> list[str]:
    """``module.function: op`` for every node that ``label`` names ``op``
    (else None), by the innermost function around it."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        op = label(node)
        if op is not None:
            sites.append(f"{module}.{where}: {op}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def blas_op(node) -> str | None:
    """A BLAS-capable numpy call, or an ``@``."""
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
            and node.func.attr in BLAS_CALLS):
        return f"np.{node.func.attr}"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return "@"
    return None


def test_blas_call_sites_are_known():
    # The kernel OpenBLAS picks for the CPU sets these sums' rounding
    # order, so each site is one that bundle and CSR bytes can depend on.
    # _has_duplicate's @ is int64, which numpy computes without BLAS.
    sites = sorted(site for path in ALL_MODULES
                   for site in call_sites(path.read_text(encoding="utf-8"),
                                          path.stem, blas_op))
    assert sites == ["features._has_duplicate: @",
                     "features._transform_block: np.dot",
                     "sgd.objective: np.dot",
                     "sgd.train_sgd: np.dot"]


def test_check_sees_every_blas_site():
    assert call_sites(
        "import numpy as np\nx = a @ b\n"
        "def f(v):\n    def g():\n        return np.einsum('i,i', v, v)\n"
        "    return np.matmul(v, v) + np.tensordot(v, v, 1) + np.sum(v)\n",
        "m", blas_op) == ["m.<module>: @", "m.g: np.einsum",
                          "m.f: np.matmul", "m.f: np.tensordot"]


def sort_op(node) -> str | None:
    """An argsort, as a function or a method, or a unique that numbers its
    keys (``return_inverse`` given, and not the constant False)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    if name == "argsort":
        return "argsort"
    if name == "unique" and any(
            kw.arg == "return_inverse"
            and not (isinstance(kw.value, ast.Constant)
                     and kw.value.value is False)
            for kw in node.keywords):
        return "unique(return_inverse)"
    return None


def test_sort_call_sites_are_known():
    # Every sort-then-group and sort-then-look-up on the text path goes
    # through one packed-key sort, whose fallback is the only argsort.
    sites = sorted(site for name in ("tokenizer", "features")
                   for site in call_sites(
                       (SRC / f"{name}.py").read_text(encoding="utf-8"),
                       name, sort_op))
    assert sites == ["tokenizer._stable_sort: argsort"]


def test_check_sees_every_sort_site():
    assert call_sites(
        "import numpy as np\nfrom numpy import argsort\nx = np.argsort(a)\n"
        "def f(v):\n    u, i = np.unique(v, return_inverse=True)\n"
        "    return (v.argsort(kind='stable'), argsort(v), np.unique(v),\n"
        "            np.unique(v, return_inverse=False),\n"
        "            np.unique(v, return_inverse=flag))\n",
        "m", sort_op) == ["m.<module>: argsort",
                          "m.f: unique(return_inverse)", "m.f: argsort",
                          "m.f: argsort", "m.f: unique(return_inverse)"]


def exported_names(source: str) -> list[str]:
    """The names a package ``__init__.py`` re-exports, sorted."""
    return sorted(alias.asname or alias.name
                  for node in ast.parse(source).body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


# The package's public names, one a line, so that adding or deleting one
# shows as a one-line diff.
PUBLIC_NAMES = [
    "BpeVocab",
    "ConfusionCounts",
    "EnsembleSpec",
    "ExternalScores",
    "GbdtConfig",
    "GbdtModel",
    "LabeledCorpus",
    "LlmdetectError",
    "ModelBundle",
    "NaiveBayesModel",
    "NgramVocabulary",
    "RocCurve",
    "SgdConfig",
    "SgdLinearModel",
    "SparseMatrix",
    "SplitSpec",
    "TfidfConfig",
    "TfidfModel",
    "TokenCorpus",
    "TokenSequence",
    "Voter",
    "confusion_at",
    "decode",
    "encode",
    "encode_corpus",
    "extract_ngrams",
    "fit_tfidf",
    "load_corpus",
    "load_external_scores",
    "load_model",
    "load_vocab",
    "rank_average",
    "roc_auc",
    "roc_auc_exact",
    "roc_curve",
    "run_ensemble",
    "save_corpus",
    "save_model",
    "save_vocab",
    "soft_vote",
    "split_corpus",
    "synth_corpus",
    "train_bpe",
    "train_gbdt",
    "train_nb",
    "train_sgd",
    "transform_corpus",
    "trapezoid_auc_exact",
    "tune_weights",
]


def test_public_names_pinned():
    assert exported_names((SRC / "__init__.py").read_text(
        encoding="utf-8")) == PUBLIC_NAMES
