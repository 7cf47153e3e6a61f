"""Source conventions that no runtime test would notice."""

import ast
import importlib
import inspect
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "exactgeom"

# a Sphinx cross-reference such as :func:`exactgeom.zpoly.int_eval`
CROSS_REFERENCE = re.compile(r":(?:func|class|mod):`~?([\w.]+)`")


def test_source_lines_fit_in_100_columns():
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long_lines, long_lines


def _resolves(target: str, home) -> bool:
    """A bare name is looked up in ``home``, the module that names it; a
    dotted one imports its longest importable prefix, as given (stdlib or
    package) or under ``exactgeom``, and follows the remaining attributes."""
    parts = target.split(".")
    if len(parts) == 1:
        return hasattr(home, target)
    for cut in range(len(parts), 0, -1):
        prefix = ".".join(parts[:cut])
        for name in (prefix, f"exactgeom.{prefix}"):
            try:
                obj = importlib.import_module(name)
            except ImportError:
                continue
            for attribute in parts[cut:]:
                if not hasattr(obj, attribute):
                    return False
                obj = getattr(obj, attribute)
            return True
    return False


def test_docstring_cross_references_resolve():
    stale = []
    for path in sorted(SRC.glob("*.py")):
        module = "exactgeom" if path.stem == "__init__" else f"exactgeom.{path.stem}"
        home = importlib.import_module(module)
        for target in CROSS_REFERENCE.findall(path.read_text(encoding="utf-8")):
            if not _resolves(target, home):
                stale.append(f"{path.name}: {target}")
    assert not stale, stale


def _private_definitions_and_references(trees):
    defined, referenced = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_private_definitions_are_used():
    # a private function, method or class that nothing in the package names
    # is dead code: its callers were removed or never existed
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    defined, referenced = _private_definitions_and_references(trees)
    assert defined, "no private definitions found"
    assert not sorted(defined - referenced), sorted(defined - referenced)


def test_only_zpoly_samples_resultants():
    # a one-parameter resultant is one call to zpoly.sampled_resultant; a
    # module that names the per-point kernels forks its sampling loop
    kernels = {"int_resultant", "int_interpolate"}
    named = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "zpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name, an Attribute, an imported alias or a definition
            names = {getattr(node, key, None) for key in ("id", "attr", "name")}
            named += [f"{path.name}:{node.lineno}: {name}" for name in kernels & names]
    assert not named, named


def test_only_quartic_and_pencil24_name_disc_delta():
    # the bitangent conditions of a pencil are built by pencil24._member_forms,
    # over GF(p) or ZZ: another module that names the discriminant builds
    # them a second time
    named = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("quartic.py", "pencil24.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "disc_delta" in {getattr(node, key, None) for key in ("id", "attr", "name")}
    ]
    assert not named, named


def test_one_remainder_sequence_in_zpoly():
    # the resultant and the first subresultant come from one subresultant
    # remainder sequence: a second function that takes pseudo-remainders is
    # a copied loop
    tree = ast.parse((SRC / "zpoly.py").read_text(encoding="utf-8"))
    callers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_int_pseudo_remainder"
    ]
    assert len(callers) == 1, callers


def test_only_univar_reduces_by_a_fixed_modulus():
    # univar.rem is the one reduction, by a fixed modulus or any other, and
    # univar.pow_mod and univar.frobenius_rows its only loops: a reducer
    # built per modulus, or a zpoly power or row loop, forks them
    forks = {"reducer", "zp_reducer", "_zp_series_inverse"}
    named = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, key, None) for key in ("id", "attr", "name", "arg")}
            named.extend(f"{path.name}:{node.lineno}: {name}" for name in names & forks)
            if path.name == "zpoly.py" and isinstance(node, ast.FunctionDef):
                if "pow_mod" in node.name or "frobenius_rows" in node.name:
                    named.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not named, named


def test_zp_mul_has_one_path():
    # zpoly.zp_mul is Kronecker substitution at every size: a loop in its
    # body would be a second (schoolbook) path, and a size threshold the
    # switch between the two
    zpoly = importlib.import_module("exactgeom.zpoly")
    tree = ast.parse(inspect.getsource(zpoly.zp_mul))
    loops = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    thresholds = [name for name in vars(zpoly) if "THRESHOLD" in name.upper()]
    assert not loops and not thresholds, (loops, thresholds)


def test_only_univar_pow_mod_halves_an_exponent():
    # univar.pow_mod is the one square-and-multiply: an ``exponent >>= 1``
    # anywhere else is a second one
    halving = set()
    for path in sorted(SRC.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.RShift)
                    and getattr(node.value, "value", None) == 1
                ):
                    halving.add(f"{path.stem}.{function.name}")
    assert halving == {"univar.pow_mod"}, sorted(halving)


def _multiplier(node):
    """The name v of a product ... * v, else None."""
    is_product = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
    return node.right.id if is_product and isinstance(node.right, ast.Name) else None


def _is_horner_step(node) -> bool:
    """(... * v + ...) * v on one name v: a product by v whose other factor is
    a sum that starts with a product by v."""
    inner = getattr(node, "left", None)
    return (
        _multiplier(node) is not None
        and isinstance(inner, ast.BinOp)
        and isinstance(inner.op, ast.Add)
        and _multiplier(inner.left) == _multiplier(node)
    )


def test_only_zpoly_spells_out_horner_chains():
    # a polynomial is evaluated by zpoly.int_eval; a module that nests
    # (c0 * x + c1) * x + ... by hand is a second evaluator
    chains = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "zpoly.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _is_horner_step(node)
    ]
    assert not chains, chains
