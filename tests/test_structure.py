"""Every public name of pcgrav is used, and every default is overridden.

A definition counts as used when some ``Name`` or ``Attribute`` node in
``src/``, ``tests/`` or ``demos/`` refers to it by name.  Re-exports in
``pcgrav/__init__.py`` do not count, and neither does the definition itself.
The same rule covers the public methods of public classes.  Since only the
name is matched, a method whose name another object's method shares can go
uncalled unseen: ``GradedBasis.index`` once hid behind ``tuple.index``.

A parameter with a default counts as set when some call to a function of
that name passes it, by keyword or by position; a call that unpacks
``*args`` or ``**kwargs`` counts as setting everything.  For a function
that production code (``src/`` or ``bench/``) calls, that call must be in
production code too: a default that only tests set is not a parameter.
A function that only ``tests/`` or ``demos/`` call may have its defaults
set there.  Calls are matched by name alone, so the scan can miss a knob
but does not flag one that is set.

No public function or method of ``src/pcgrav`` takes the excised ball as
a parameter (``r``, ``mode`` or a ``PcConfig``): the grid carries it, and
only ``Grid4.radius`` names a mode.

No public function or method of ``src/pcgrav`` has a ``strict`` parameter,
or takes a ``cutoff`` beside an ``EquivariantTestForm``: the test form
carries its cutoff, and its generator's plane is not a knob.

No public function or method of ``src/pcgrav`` takes an ``out`` or
``scratch`` buffer, except ``diff_axis`` and ``diff_ring`` their ``out``: the
kernels allocate their own results and temporaries.  None takes a
``b_live``: ``wedge`` finds the live components of its operands itself.

No module of ``src/pcgrav`` holds a ``global`` statement, and no function
decorated with ``lru_cache`` or ``functools.cache`` takes a ``Grid4``: an
array derived from a grid is held in ``grid``'s one lattice store, not in
a second cache beside it.

No ``np.einsum`` in ``src/pcgrav`` has ``...`` in its subscripts, except
in ``fields.metric_from_tetrad``, the dense reference tests compare
against: a contraction over whole grids of components would bring back
the zero-filled arrays the live stacks avoid.

``cli.py`` imports no name from ``action``, ``geometry``, ``mass`` or
``symmetry``, and no verdict function: each scenario command's body,
verdict included, comes from one study in ``scenarios``, and the command
line loads, calls it and writes.
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


PRODUCTION = ("src", "bench")


def calls_by_name():
    """name -> [(folder, positional count, keyword names, unpacks)] per
    call."""
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
                    calls[name].append((folder, len(node.args), keywords,
                                        unpacks))
    return calls


def test_no_defaulted_parameter_goes_unset():
    calls = calls_by_name()
    unset = []
    for module, function, parameter, index in defaulted_parameters():
        production = [call for call in calls[function]
                      if call[0] in PRODUCTION]
        if not any(unpacks or parameter in keywords
                   or (index is not None and positional > index)
                   for _, positional, keywords, unpacks
                   in production or calls[function]):
            unset.append(f"{module}:{function}({parameter})")
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


def test_kernels_own_their_buffers():
    # ext_d differentiates straight into its result through diff_axis(out),
    # and the ring stencil writes one slice; nothing else takes a buffer
    allowed = {"diff_axis(out)", "diff_ring(out)"}
    stray = [f"{module}:{name}({arg.arg})"
             for module, name, fn, _ in public_functions()
             for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
             if arg.arg in ("out", "scratch", "b_live")
             and f"{name}({arg.arg})" not in allowed]
    assert stray == []


def test_no_module_rebinds_global_state():
    # process-level choices (thread pools, exit codes) belong to the one
    # module that makes them, passed down as arguments, not rebound globals
    rebinding = [f"{path.name}:{node.lineno}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Global)]
    assert rebinding == []


def test_no_cache_is_keyed_by_a_grid():
    # a grid-keyed cache would keep its arrays by its own bound, not for as
    # long as the lattice is in use
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            decorators = [getattr(d, "func", d) for d in node.decorator_list]
            cached = any(getattr(d, "attr", getattr(d, "id", None))
                         in ("lru_cache", "cache") for d in decorators)
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            takes_grid = any(arg.arg == "grid" or (
                arg.annotation is not None
                and "Grid4" in ast.unparse(arg.annotation)) for arg in args)
            if cached and takes_grid:
                stray.append(f"{path.name}:{node.name}")
    assert stray == []


def test_no_einsum_contracts_whole_grids():
    allowed = {"fields.py:metric_from_tetrad"}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == "einsum"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and "..." in str(node.args[0].value)
                        and f"{path.name}:{fn.name}" not in allowed):
                    stray.append(f"{path.name}:{fn.name}:{node.lineno}")
    assert stray == []


def test_the_command_line_imports_no_field_physics():
    physics = {"action", "geometry", "mass", "symmetry"}
    verdicts = {"apply_family_verdicts", "classify_sequence", "eom_verdict",
                "fit_slope", "fold_verdicts"}
    imported = []
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            names = [alias.name for alias in node.names]
            if (module in physics or verdicts & {*names}
                    or (module in ("", "pcgrav") and physics & {*names})):
                imported.append(f"{node.module}: {', '.join(names)}")
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names
                         if alias.name.split(".")[-1] in physics]
    assert imported == []
