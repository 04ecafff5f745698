"""Every public name of pcgrav is used, and every default is overridden.

A definition counts as used when some ``Name`` or ``Attribute`` node in
``src/``, ``tests/`` or ``demos/`` refers to it by name.  Re-exports in
``pcgrav/__init__.py`` do not count, and neither does the definition itself.
The same rule covers the public methods of public classes.  Since only the
name is matched, a method whose name another object's method shares can go
uncalled unseen: ``GradedBasis.index`` once hid behind ``tuple.index``.

A parameter with a default counts as set when some call in ``src/``,
``tests/``, ``demos/`` or ``bench/`` to a function of that name passes it,
by keyword or by position; a call that unpacks ``*args`` or ``**kwargs``
counts as setting everything.  Calls are matched by name alone, so the scan
can miss a knob but does not flag one that is set.

No public function or method of ``src/pcgrav`` takes the excised ball as
a parameter (``r``, ``mode`` or a ``PcConfig``): the grid carries it, and
only ``Grid4.radius`` names a mode.

No public function or method of ``src/pcgrav`` has a ``strict`` parameter,
or takes a ``cutoff`` beside an ``EquivariantTestForm``: the test form
carries its cutoff, and its generator's plane is not a knob.

No module of ``src/pcgrav`` holds a ``global`` statement.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcgrav"


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.name, node.name


def referenced_names():
    names = set()
    for folder in ("src", "tests", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def public_functions():
    """(module, qualified name, node, bound) of every public function and
    every public method of a public class; ``bound`` is 1 where a caller
    does not pass the first parameter (self or cls)."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield path.name, node.name, node, 0
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        yield (path.name, f"{node.name}.{item.name}", item,
                               0 if static else 1)


def test_no_public_helper_goes_uncalled():
    used = referenced_names()
    unused = [f"{module}:{name}" for module, name in public_definitions()
              if name not in used]
    assert unused == []


def test_no_public_method_goes_uncalled():
    used = referenced_names()
    unused = [f"{module}:{name}"
              for module, name, fn, _ in public_functions()
              if "." in name and fn.name not in used]
    assert unused == []


def defaulted_parameters():
    """(module, function, parameter, positional index or None) per default."""
    for module, _, fn, bound in public_functions():
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        for n, arg in enumerate(args[first:], start=first):
            yield module, fn.name, arg.arg, n - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield module, fn.name, arg.arg, None


def calls_by_name():
    """name -> [(positional count, keyword names, unpacks)] per call."""
    calls = defaultdict(list)
    for folder in ("src", "tests", "demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    keywords = {k.arg for k in node.keywords}
                    unpacks = (None in keywords or any(
                        isinstance(a, ast.Starred) for a in node.args))
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    calls[name].append((len(node.args), keywords, unpacks))
    return calls


def test_no_defaulted_parameter_goes_unset():
    calls = calls_by_name()
    unset = [f"{module}:{function}({parameter})"
             for module, function, parameter, index in defaulted_parameters()
             if not any(unpacks or parameter in keywords
                        or (index is not None and positional > index)
                        for positional, keywords, unpacks in calls[function])]
    assert unset == []


def test_the_grid_alone_carries_the_excised_ball():
    # a norm region, cutoff profile or support check reads the ball from
    # the grid of its fields; only the radius itself names a mode
    stray = []
    for module, name, fn, _ in public_functions():
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
            annotation = ast.unparse(arg.annotation) if arg.annotation else ""
            if ((arg.arg in ("r", "mode") and name != "Grid4.radius")
                    or "PcConfig" in annotation):
                stray.append(f"{module}:{name}({arg.arg})")
    assert stray == []


def test_the_test_form_carries_its_cutoff():
    stray = []
    for module, name, fn, _ in public_functions():
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        names = {arg.arg for arg in args}
        takes_form = any(arg.annotation is not None and "EquivariantTestForm"
                         in ast.unparse(arg.annotation) for arg in args)
        if "strict" in names or (takes_form and "cutoff" in names):
            stray.append(f"{module}:{name}")
    assert stray == []


def test_no_module_rebinds_global_state():
    # process-level choices (thread pools, exit codes) belong to the one
    # module that makes them, passed down as arguments, not rebound globals
    rebinding = [f"{path.name}:{node.lineno}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Global)]
    assert rebinding == []
