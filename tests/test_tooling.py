"""Names that tools outside the package look up by string.

The benchmark tracer (``perfbench/tracing.py``) wraps sdnop functions by
(module, attribute) name, so a rename would quietly drop a layer from its
split; its line-search notes read the evaluated point as the second
positional argument of the augmented-Lagrangian value and gradient, so a
reordered signature or a keyword call would corrupt the trial count.  The
``__all__`` of the package and of each module is what
``from ... import *`` reads.  Every name the package exports is used by
the package itself or by the acceptance suite, or is on a short list of
names kept on purpose, and every public function or class of a
numerical module is exported or read somewhere in the package.  The
package raises only its own error types, which the command line reports
in one line.
"""

import argparse
import ast
import builtins
import importlib
import importlib.util
import inspect
import os
import pkgutil

import numpy as np

import sdnop
from sdnop import problem, solver
from sdnop.errors import SDNOPError

ROOT = os.path.dirname(os.path.dirname(__file__))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")

# exported names that neither the package nor the acceptance suite uses
KEPT_UNUSED = {
    "smat",  # the inverse of svec, which the diagnostics use
    # the membership test that pairs with critical_cone_theta_project
    "critical_cone_theta_contains",
}


def _wrapped():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_imports_kept_for_the_tracer():
    # problem.py imports some public forms only so that the tracer can
    # wrap them there: the names it imports and never reads are exactly
    # the tracer's sdnop.problem names that it neither defines nor calls
    with open(problem.__file__) as fh:
        tree = ast.parse(fh.read())
    imported, read, called, defined = set(), set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
    traced = {attr for mod, attr, _, _ in _wrapped()
              if mod == "sdnop.problem"}
    assert imported - read == traced - defined - called


def test_traced_names_resolve():
    wrapped = _wrapped()
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in wrapped
               if not hasattr(importlib.import_module(mod), attr)]
    assert len(wrapped) > 0
    assert not missing, missing


def test_public_names_resolve():
    missing = [name for name in sdnop.__all__ if not hasattr(sdnop, name)]
    assert not missing, missing


def _referenced_names(path, imports=True):
    """Names a source file reads or looks up as attributes, and, with
    ``imports``, the names it imports."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports and isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _package_paths():
    package = os.path.dirname(sdnop.__file__)
    return [os.path.join(package, f"{info.name}.py")
            for info in pkgutil.iter_modules(sdnop.__path__)]


def test_public_names_are_used():
    used = set().union(*map(_referenced_names,
                            _package_paths() + [ACCEPTANCE]))
    unused = sorted(set(sdnop.__all__) - used - KEPT_UNUSED)
    assert not unused, unused


def test_every_public_function_has_a_caller():
    # a public module-level function or class of a numerical module is
    # exported by the package or read by name somewhere in it: an import
    # alone is no caller
    read = set().union(*(_referenced_names(path, imports=False)
                         for path in _package_paths()))
    uncalled = []
    for name in ("spectral", "psd_cone", "nuclear", "problem", "solver",
                 "diagnostics", "generator"):
        module = importlib.import_module(f"sdnop.{name}")
        for attr, obj in vars(module).items():
            if (attr.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__
                    or not (inspect.isfunction(obj) or inspect.isclass(obj))):
                continue
            if attr not in sdnop.__all__ and attr not in read:
                uncalled.append(f"{module.__name__}.{attr}")
    assert not uncalled, uncalled


# raises of a foreign type, each on purpose: argparse turns this one into
# a usage error that names --seed, which main reports as an input error
FOREIGN_RAISES = {
    ("sdnop.cli", "_seed"): argparse.ArgumentTypeError,
}


def _raise_sites(tree):
    """(enclosing function, raised expression) of each raise statement;
    the expression is None for a bare re-raise."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise):
                sites.append((scope, child.exc))
            visit(child, scope)

    visit(tree, None)
    return sites


def _raised_type(module, exc):
    """The object a raised expression names in ``module``: the callee of
    a call, or a plain or dotted name; None when it names nothing there."""
    node = exc.func if isinstance(exc, ast.Call) else exc
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    obj = vars(module).get(node.id, getattr(builtins, node.id, None))
    for attr in reversed(attrs):
        obj = getattr(obj, attr, None)
    return obj


def test_package_raises_only_its_own_errors():
    # every raise in the package is a bare re-raise or raises an
    # SDNOPError subclass, which cli.main reports without a traceback
    foreign = []
    for info in pkgutil.iter_modules(sdnop.__path__):
        module = importlib.import_module(f"sdnop.{info.name}")
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        for scope, exc in _raise_sites(tree):
            if exc is None:
                continue
            raised = _raised_type(module, exc)
            if inspect.isclass(raised) and (
                    issubclass(raised, SDNOPError)
                    or raised is FOREIGN_RAISES.get((module.__name__, scope))):
                continue
            foreign.append(
                f"{module.__name__}.{scope}: {ast.unparse(exc)[:60]}")
    assert not foreign, foreign


# the per-step kernels that form 0.5 (X + X.T) inline; every other
# symmetrization in the package goes through spectral.symmetric_part
INLINE_SYMMETRIZATIONS = {"soft_threshold", "positive_part",
                          "newton_matrix_element"}


def _is_inline_symmetrization(node):
    """Whether ``node`` is 0.5 * (X + X.T), in either factor order and
    either term order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for half, total in ((node.left, node.right), (node.right, node.left)):
        if not (isinstance(half, ast.Constant) and half.value == 0.5
                and isinstance(total, ast.BinOp)
                and isinstance(total.op, ast.Add)):
            continue
        for X, XT in ((total.left, total.right), (total.right, total.left)):
            if (isinstance(XT, ast.Attribute) and XT.attr == "T"
                    and ast.dump(XT.value) == ast.dump(X)):
                return True
    return False


def _inline_symmetrizations(tree):
    """The innermost enclosing function of each inline 0.5 (X + X.T)."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if _is_inline_symmetrization(child):
                scopes.append(scope)
            visit(child, scope)

    visit(tree, None)
    return scopes


def test_inline_symmetrization_only_in_the_kernels():
    found = [_inline_symmetrizations(ast.parse(src)) for src in (
        "def f(X):\n    return 0.5 * (X + X.T)",
        "def g(V):\n    return (V[a, b].T + V[a, b]) * 0.5",
        "def h(X, Y):\n    return 0.5 * (X + Y.T)")]
    assert found == [["f"], ["g"], []]
    stray = []
    for path in _package_paths():
        with open(path) as fh:
            tree = ast.parse(fh.read())
        stray += [f"{os.path.basename(path)}: {scope}"
                  for scope in _inline_symmetrizations(tree)
                  if scope not in INLINE_SYMMETRIZATIONS]
    assert not stray, stray


def test_module_public_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(sdnop.__path__):
        module = importlib.import_module(f"sdnop.{info.name}")
        missing += [f"sdnop.{info.name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, missing


def _defined_functions(module):
    """Functions and methods defined in ``module``, by qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_spectral_operators_have_one_form():
    # each spectral operator is one function of a decomposition, which its
    # public matrix form wraps: no optional ``eig`` argument beside the
    # matrix, and no ``*_symmetrized`` twin (``eig_symmetrized`` is the
    # decomposition itself)
    optional, twins = [], []
    for info in pkgutil.iter_modules(sdnop.__path__):
        module = importlib.import_module(f"sdnop.{info.name}")
        functions = dict(_defined_functions(module))
        for name, fn in functions.items():
            eig = inspect.signature(fn).parameters.get("eig")
            if eig is not None and eig.default is None:
                optional.append(f"{module.__name__}.{name}")
        names = set(getattr(module, "__all__", ())) | set(functions)
        twins += [f"{module.__name__}.{name}" for name in sorted(names)
                  if name.endswith("_symmetrized")
                  and name != "eig_symmetrized"]
    assert not optional, optional
    assert not twins, twins


# the public functions that take a tolerance, each because a caller in
# the package sets it: prox_bsub_element passes group_tol 1e-12 to
# prox_divided_diff, so that its saturated groups sit exactly on the
# kinks, and prox_divided_diff passes its group_tol on to group_distinct;
# critical_blocks_contain sees only a compressed direction, so each
# caller passes 1e-8 (1 + max |H|) of the direction it holds.  Every
# other tolerance is a constant (README, "Fixed tolerances")
TOLERANCE_ARGUMENTS = {
    "sdnop.spectral.group_distinct": "group_tol",
    "sdnop.nuclear.prox_divided_diff": "group_tol",
    "sdnop.nuclear.critical_blocks_contain": "tol",
}


# the public functions that take a seed, a random state or a sample count.
# The diagnostics' brackets and verdicts are spectral functions of the
# data and sample nothing; the sweep's seed picks its perturbation
# direction
SAMPLING_ARGUMENTS = {
    "sdnop.diagnostics.rate_sweep": "seed",
}


def _public_arguments(names):
    """Public functions of the numerical modules that take an argument in
    ``names``, by qualified name."""
    found = {}
    for name in ("spectral", "psd_cone", "nuclear", "problem", "solver",
                 "diagnostics"):
        module = importlib.import_module(f"sdnop.{name}")
        for qualname, fn in _defined_functions(module):
            if qualname.split(".")[-1].startswith("_"):
                continue
            for param in inspect.signature(fn).parameters:
                if param in names:
                    found[f"{module.__name__}.{qualname}"] = param
    return found


def test_tolerance_arguments_are_listed():
    assert _public_arguments(("tol", "group_tol", "cutoff")) == \
        TOLERANCE_ARGUMENTS


def test_sampling_arguments_are_listed():
    assert _public_arguments(("seed", "rng", "rotations")) == \
        SAMPLING_ARGUMENTS


# defaulted parameters of public functions that no call in the package
# sets, each kept on purpose: the *_choice arguments select the paper's
# B-subdifferential elements, a free choice inside [0, 1] that the
# package commits to "zero" and a caller may make otherwise; the console
# script calls main() and tests pass argv
UNSET_DEFAULTS = {
    "sdnop.psd_cone.proj_bsub_element": {"beta_choice"},
    "sdnop.nuclear.grad_env_bsub_element": {"up_choice", "low_choice"},
    "sdnop.cli.main": {"argv"},
}


def _sets(call, params, name):
    """Whether an ast.Call passes the parameter ``name`` of a signature
    whose parameter names are ``params``: by position, by keyword, or
    through a * or ** unpacking."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or len(call.args) > params.index(name)
            or any(kw.arg in (None, name) for kw in call.keywords))


def test_every_default_is_set_by_the_package():
    # a call is matched to a function by the name it calls, a plain name
    # or an attribute; the CLI counts as a caller
    package = os.path.dirname(sdnop.__file__)
    calls = {}
    for info in pkgutil.iter_modules(sdnop.__path__):
        with open(os.path.join(package, f"{info.name}.py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls.setdefault(name, []).append(node)
    unset = {}
    for name in ("spectral", "psd_cone", "nuclear", "problem", "solver",
                 "diagnostics", "generator", "cli"):
        module = importlib.import_module(f"sdnop.{name}")
        for qualname, fn in _defined_functions(module):
            short = qualname.split(".")[-1]
            if short.startswith("_"):
                continue
            sig = inspect.signature(fn).parameters
            # a method's calls do not pass self
            params = list(sig)[1 if "." in qualname else 0:]
            for param, spec in sig.items():
                if spec.default is inspect.Parameter.empty:
                    continue
                if not any(_sets(call, params, param)
                           for call in calls.get(short, ())):
                    unset.setdefault(f"{module.__name__}.{qualname}",
                                     set()).add(param)
    assert unset == UNSET_DEFAULTS


def test_problem_methods_read_x():
    # a QuadraticProblem method that takes x reads it: what does not vary
    # with x is data (f_H, h_A) or a map's method (hess_contract), read
    # there by the callers
    tree = ast.parse(inspect.getsource(problem.QuadraticProblem))
    ignoring = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if "x" not in (arg.arg for arg in node.args.args):
            continue
        if not any(isinstance(n, ast.Name) and n.id == "x"
                   and isinstance(n.ctx, ast.Load)
                   for stmt in node.body for n in ast.walk(stmt)):
            ignoring.append(node.name)
    assert not ignoring, ignoring


def test_stagnation_stop_can_pass_the_outer_floor_test():
    # an inner solve that stagnates ends with a gradient norm of up to
    # _STAGNATION_FACTOR floors; the outer loop converges on a residual
    # within _OUTER_FLOOR_FACTOR floors, so it can accept that subproblem
    assert 1.0 <= solver._STAGNATION_FACTOR <= solver._OUTER_FLOOR_FACTOR


def test_one_element_type():
    # every generalized-derivative element is a spectral.HadamardElement:
    # no other class applies an operator, and each *_bsub_element
    # constructor returns one
    X, Y = np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 0.5, -1.0])
    calls = {
        "prox_bsub_element": (X, Y, 0.5),
        "grad_env_bsub_element": (X, Y, 0.5),
        "proj_bsub_element": (X,),
    }
    appliers, constructors = [], {}
    for info in pkgutil.iter_modules(sdnop.__path__):
        module = importlib.import_module(f"sdnop.{info.name}")
        for name, fn in _defined_functions(module):
            if name.endswith(".apply"):
                appliers.append(f"{module.__name__}.{name}")
            elif name.endswith("_bsub_element"):
                constructors[name] = fn
    assert appliers == ["sdnop.spectral.HadamardElement.apply"], appliers
    assert sorted(constructors) == sorted(calls)
    for name, fn in constructors.items():
        assert type(fn(*calls[name])) is sdnop.spectral.HadamardElement, name


_NOTED_BY_POINT = ("aug_lagrangian_value", "aug_lagrangian_grad")


def test_traced_point_is_second_positional_argument(monkeypatch,
                                                    mixed_instance):
    notes = {attr: note for mod, attr, _, note in _wrapped()
             if mod == "sdnop.solver"}
    for name in _NOTED_BY_POINT:
        assert notes[name] is not None, name
        params = list(inspect.signature(getattr(problem, name)).parameters
                      .values())
        assert params[1].name == "x", name
        assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD

    # the solver passes the point positionally, where the notes read it
    seen = {name: [] for name in _NOTED_BY_POINT}
    for name in _NOTED_BY_POINT:
        def recording(*args, _fn=getattr(problem, name), _name=name,
                      **kwargs):
            seen[_name].append(args[1])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, recording)
    P = mixed_instance
    solver.inner_minimize(P, P.reference.multipliers, 10.0,
                          np.full(P.n, 0.1), solver.InnerConfig())
    for name, points in seen.items():
        assert points, name
        assert all(isinstance(x, np.ndarray) and x.shape == (P.n,)
                   for x in points), name


def test_traced_hot_path_counts(monkeypatch):
    # the benchmark splits its layers by these names: a Newton element
    # builds one soft-threshold and one PSD pair table, and the inner loop
    # evaluates the value where a step reads it, through the solver's
    # name.  A hot path rerouted past a name changes a count here.
    counts = dict.fromkeys(("value", "element", "soft", "psd"), 0)

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module, name, key in (
            (solver, "aug_lagrangian_value", "value"),
            (solver, "newton_matrix_element", "element"),
            (sdnop.nuclear, "soft_pair_table", "soft"),
            (sdnop.psd_cone, "psd_pair_table", "psd")):
        monkeypatch.setattr(module, name, counting(getattr(module, name),
                                                   key))
    P = problem.load_instance(os.path.join(ROOT, "instances",
                                           "nondegen_small.json"))
    _point, trace = solver.alm_solve(P, problem.MultiplierTriple.zeros(P),
                                     solver.ALMConfig(), np.zeros(P.n))
    assert counts["element"] == sum(trace.inner_iterations) == 17
    assert counts["soft"] == counts["psd"] == counts["element"]
    assert counts["value"] == 20


# the numpy calls the benchmark clock stamps: a data constant the solver
# forms on first use must not be formed by one, or the first operation on
# an input would carry a stamp its repeats lack
STAMPED = tuple((np.linalg, name) for name in (
    "eigh", "eigvalsh", "eig", "eigvals", "svd", "solve", "lstsq")) \
    + ((np, "einsum"),)


def test_data_constants_call_no_stamped_numpy(monkeypatch,
                                              mixed_quadratic_instance):
    calls = []

    def stamped(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    fresh = [problem.load_instance(os.path.join(ROOT, "instances",
                                                f"{name}.json"))
             for name in ("nondegen_small", "degen_small", "saddle_small")]
    fresh += [sdnop.generate_instance(40, 16, 4, 14, profile=profile, seed=7)
              for profile in ("nondegen", "degen")]
    fresh.append(mixed_quadratic_instance)
    for P in fresh:
        # formed afresh below, whatever read them before
        for name in ("affine_curvature", "curvature_bounds", "jac_h_gram",
                     "jac_norms"):
            P.__dict__.pop(name, None)
    for module, name in STAMPED:
        monkeypatch.setattr(module, name,
                            stamped(name, getattr(module, name)))
    for P in fresh:
        P.affine_curvature, P.curvature_bounds, P.jac_h_gram, P.jac_norms
    assert calls == []
    assert fresh[-1].affine_curvature is None
    assert fresh[-1].curvature_bounds is None
    assert fresh[-1].jac_norms[0] is None
