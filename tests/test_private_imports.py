"""No gciva module imports an underscore name from a sibling module: a name
that another module needs belongs to the package's interface, so it is public.
No module keeps a private helper or constant that it never uses, or imports
a name it never reads, and no module but ``errors.py`` writes its own
``0 <= i < n`` index check or rejects a parameter or field by its own
finiteness test or numeric comparison: indices, counts and seeds go through
``errors.checked_index``, other numbers through ``errors.checked_scalar``.
``errors.py`` itself imports numpy and operator alone, so importing gciva
stays as fast as it is. The modules are read as source with ``ast``."""

import ast
from pathlib import Path

import pytest

import gciva

MODULES = sorted(Path(gciva.__file__).resolve().parent.glob("*.py"))


def private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gciva"):
            found += [f"{node.module or '.'}:{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def referenced_names(node: ast.AST) -> set[str]:
    # every name read or bound under node, and every attribute taken
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def defined_names(node: ast.stmt) -> list[str]:
    # the names a module-level function, class or assignment binds
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def unused_private_definitions(tree: ast.Module) -> list[str]:
    # module-level private functions, classes and constants (dunders aside)
    # that no other statement of their module references; no sibling may
    # import them (checked below)
    unused = []
    for definition in tree.body:
        private = [name for name in defined_names(definition)
                   if name.startswith("_") and not name.startswith("__")]
        if private:
            uses = set().union(*(referenced_names(node) for node in tree.body
                                 if node is not definition))
            unused += [name for name in private if name not in uses]
    return unused


def unused_imports(tree: ast.Module) -> list[str]:
    # names a module imports but never reads; __init__'s re-exports are
    # read through __all__
    imported, used = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        else:
            used |= referenced_names(node)
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def index_range_checks(tree: ast.AST) -> list[int]:
    # lines of comparisons that start at the int 0 and end with <, the shape
    # of a hand-written 0 <= i < n (a float range such as 0.0 <= d <= 180.0
    # is not an index check)
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant) and type(node.left.value) is int
            and node.left.value == 0 and isinstance(node.ops[-1], ast.Lt)]


FINITE_TESTS = {"isfinite", "isnan", "isinf"}
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def input_names(function: ast.AST) -> set[str]:
    # a function's parameters, and the loop variables bound from them
    args = function.args
    names = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg] if a is not None}
    for node in ast.walk(function):
        if isinstance(node, (ast.For, ast.comprehension)) and referenced_names(node.iter) & names:
            names |= {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
    return names


def is_input(node: ast.AST, names: set[str]) -> bool:
    # a parameter, a field (self.x), an item of a parameter (band[0]), or a
    # call taking one (checked_index(n, ...), getattr(self, name))
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "self"
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        return node.value.id in names
    return isinstance(node, ast.Call) and any(is_input(arg, names) for arg in node.args)


def judges_an_input(test: ast.AST, names: set[str]) -> bool:
    # a finiteness test of an input, an ordering of one, or its equality
    # with a number
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and getattr(node.func, "attr",
                                                  getattr(node.func, "id", None)) in FINITE_TESTS:
            if any(is_input(arg, names) for arg in node.args):
                return True
        if isinstance(node, ast.Compare) and any(is_input(n, names)
                                                 for n in [node.left, *node.comparators]):
            numbers = [n for n in [node.left, *node.comparators] if isinstance(n, ast.Constant)
                       and type(n.value) in (int, float)]
            if any(isinstance(op, ORDERINGS) for op in node.ops) or numbers:
                return True
    return False


def hand_written_input_checks(tree: ast.AST) -> list[int]:
    # lines of the ifs that raise InvalidInputError on their own judgement of
    # a parameter or field; shape checks and checks of computed values pass
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        names = input_names(function)
        for node in ast.walk(function):
            if isinstance(node, ast.If) and any(
                    isinstance(s, ast.Raise) and isinstance(s.exc, ast.Call)
                    and getattr(s.exc.func, "id", None) == "InvalidInputError"
                    for s in node.body) and judges_an_input(node.test, names):
                found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_definition_is_used(path):
    assert unused_private_definitions(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda path: path.name)
def test_no_hand_written_index_range_check(path):
    assert index_range_checks(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda path: path.name)
def test_no_hand_written_input_check(path):
    assert hand_written_input_checks(ast.parse(path.read_text())) == []


def test_errors_imports_numpy_and_operator_alone():
    tree = ast.parse(next(p for p in MODULES if p.name == "errors.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"numpy", "operator"}


# the checks that errors.py's helpers replaced, each marked "# found", among
# shape checks and the overflow checks of computed correlations, which stay
REPLACED_CHECKS = """
def _check_nonnegative(**values):
    for name, value in values.items():
        if not np.isfinite(value) or value < 0:  # found
            raise InvalidInputError(f"{name} must be nonnegative")

class SourceModel:
    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:  # found
            raise InvalidInputError("epsilon must be positive")

def prior_matrix(h, sigma2, lambda_e):
    if not np.isfinite(sigma2) or sigma2 <= 0:  # found
        raise InvalidInputError("sigma2 must be positive")
    if h.ndim != 1:
        raise InvalidInputError("steering vector must be 1-D")

def _check_doa(doa_deg):
    if not 0.0 <= doa_deg <= 180.0:  # found
        raise InvalidInputError(f"DOA {doa_deg} outside [0, 180] degrees")

def _check_snr(snr_db):
    if np.isnan(snr_db) or (np.isinf(snr_db) and snr_db < 0):  # found
        raise InvalidInputError("snr_db must be finite or +inf")

class ArrayGeometry:
    def __post_init__(self):
        pos = np.atleast_2d(checked_array(self.mic_positions, "mic_positions"))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise InvalidInputError("mic_positions must be (n_mics, 3)")
        if pos.shape[0] < 2:
            raise InvalidInputError("need at least 2 microphones")
        if not np.isfinite(self.speed_of_sound) or self.speed_of_sound <= 0:  # found
            raise InvalidInputError("speed_of_sound must be positive")

def synthetic_sources(n_sources, duration, sample_rate, seed=0, band_hz=(150.0, 600.0)):
    if checked_index(n_sources, None, "n_sources") < 1:  # found
        raise InvalidInputError("need n_sources >= 1")
    nyquist = sample_rate / 2.0
    if not 0.0 < band_hz[0] < nyquist:  # found
        raise InvalidInputError("highpass edge must lie below the Nyquist frequency")
    if not np.isfinite(duration):  # found
        raise InvalidInputError(f"duration {duration:g} s is not finite")
    n_samples = int(round(duration * sample_rate))
    if n_samples < 1:
        raise InvalidInputError(f"duration {duration:g} s renders {n_samples} samples")

class StftConfig:
    def __post_init__(self):
        for name in ("window_length", "hop"):
            if checked_index(getattr(self, name), None, name) == 0:  # found
                raise InvalidInputError(f"{name} must be a positive integer")
        if self.hop > self.window_length:  # found
            raise InvalidInputError("hop must not exceed window_length")
        if not np.isfinite(self.sample_rate) or self.sample_rate <= 0:  # found
            raise InvalidInputError("sample_rate must be positive")

def analyze(signal, config):
    x = checked_array(signal, "signal")
    if x.ndim != 2 or x.shape[0] == 0:
        raise InvalidInputError("signal must be a non-empty (samples, channels) array")
    if x.shape[0] < config.window_length:
        raise InvalidInputError("signal is shorter than one window")

class ReferenceProjector:
    def __init__(self, references, filter_len=512):
        references = np.atleast_2d(checked_array(references, "references"))
        if checked_index(filter_len, None, "filter_len") < 1:  # found
            raise InvalidInputError("filter_len must be positive")
        if references.shape[1] < 10 * filter_len:
            raise InvalidInputError("signals must span at least 10 * filter_len samples")
        cross = self._cross(np.fft.rfft(references))
        if not np.all(np.isfinite(cross)):
            raise InvalidInputError("metric inputs overflow the reference correlations")

    def score(self, estimates):
        estimates = checked_array(estimates, "estimates")
        if estimates.ndim != 2 or estimates.shape[1] != self.n_samples:
            raise InvalidInputError("estimate and references must have equal lengths")
        cross = self._cross(np.fft.rfft(estimates))
        if not np.all(np.isfinite(cross)):
            raise InvalidInputError("metric inputs overflow the cross-correlations")
"""


def test_check_finds_each_replaced_input_check_only():
    marked = [n for n, line in enumerate(REPLACED_CHECKS.splitlines(), start=1)
              if line.endswith("# found")]
    assert len(marked) == 13
    assert hand_written_input_checks(ast.parse(REPLACED_CHECKS)) == marked


def test_check_finds_index_range_checks_only():
    tree = ast.parse("if not 0 <= k < n:\n    pass\n"
                     "if not 0.0 <= d <= 180.0:\n    pass\n"
                     "ok = 0 <= k and k <= n\n"
                     "if any(not 0 <= k < n for k in ks):\n    pass\n")
    assert index_range_checks(tree) == [1, 6]


def test_checks_find_a_dead_helper_and_an_unused_import():
    tree = ast.parse("import os\nfrom .stft import StftConfig\n"
                     "def _dead():\n    return _dead()\n"
                     "_DEAD, _READ = 1, 2\nLIMIT = _READ\n")
    assert unused_private_definitions(tree) == ["_dead", "_DEAD"]
    assert unused_imports(tree) == ["os", "StftConfig"]


def test_modules_found():
    assert {"cli.py", "iva.py", "metrics.py"} <= {path.name for path in MODULES}
