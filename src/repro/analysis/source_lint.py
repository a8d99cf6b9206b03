"""AST-based determinism lint over the repository's source tree.

The repository's reproducibility contract is behavioural: identical
inputs must produce bit-identical results, content keys must be pure
functions of their payloads, and every backend result must pass contract
validation.  This module enforces the *source-level* half of that
contract with four rules, each mapped to a hazard the repo has actually
had to design around:

``unseeded-rng``
    Calls into stateful random sources: ``numpy.random.default_rng()``
    with no seed, the legacy ``numpy.random.*`` global-state functions,
    and the stdlib ``random`` module.  Every RNG in the repo must be an
    explicitly seeded ``default_rng(seed)`` stream.

``wallclock-key-path``
    Wall-clock reads (``time.time``, ``datetime.now``, …) inside
    functions on the content-key/payload path (names containing ``key``,
    ``payload``, ``fingerprint``, ``digest`` or ``content``).  Timestamps
    are fine in status files and manifests; folded into a cache key they
    make every run a miss.

``unordered-key-path``
    Order hazards on the content-key path: ``json.dumps`` without
    ``sort_keys=True``, and iteration over set displays/constructors
    (set iteration order varies across processes under hash
    randomisation, so it must never feed a digest).

``backend-contract``
    ``run_noise_point`` implementations (the point-level execution entry
    every backend exposes) must return through
    :func:`repro.backends.contract.ensure_noisy_result` on every path, so
    malformed results surface as typed contract errors.  Their batch form,
    ``run_noise_points``, must return a list comprehension whose every
    element passes through ``ensure_noisy_result`` or ``run_noise_point``.

All rules are purely syntactic — no imports of the linted code — so the
lint runs on any tree, including broken ones.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.report import AnalysisReport, Finding

#: Function-name fragments that mark the content-key/payload path.
_KEY_PATH_MARKERS = ("key", "payload", "fingerprint", "digest", "content")

#: Stateful legacy ``numpy.random`` entry points (module-level global RNG).
_NUMPY_GLOBAL_RNG = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "choice", "shuffle", "permutation", "normal", "uniform", "seed",
    "standard_normal", "binomial", "poisson", "exponential", "bytes",
})

#: Wall-clock reads that must stay off the content-key path.
_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Backend entry points the ``backend-contract`` rule checks, with the
#: calls that validate each returned result (for ``run_noise_points``,
#: each element of the list comprehension it returns).
_VALIDATED_RETURNS = {
    "run_noise_point": ("ensure_noisy_result",),
    "run_noise_points": ("ensure_noisy_result", "run_noise_point"),
}

#: Rule names, in reporting order.
SOURCE_RULES = (
    "unseeded-rng",
    "wallclock-key-path",
    "unordered-key-path",
    "backend-contract",
)


def _dotted_name(node: ast.expr) -> str | None:
    """Flatten an ``a.b.c`` attribute chain to a dotted string, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Imports:
    """Maps local names to the fully-qualified names they import."""

    def __init__(self, tree: ast.Module) -> None:
        """Collect every import alias the module declares."""
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, dotted: str) -> str | None:
        """Qualify ``dotted`` through the file's imports, or None if local."""
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target


class _DeterminismVisitor(ast.NodeVisitor):
    """Single-file visitor implementing the four determinism rules."""

    def __init__(self, file_label: str, imports: _Imports) -> None:
        """Prepare a visitor for one file with its resolved imports."""
        self.file = file_label
        self.imports = imports
        self.findings: list[Finding] = []
        self._function_stack: list[str] = []

    # -- helpers -------------------------------------------------------
    def _emit(self, rule: str, message: str, node: ast.AST) -> None:
        """Record one error finding anchored to ``node``'s line."""
        self.findings.append(
            Finding(
                severity="error", pass_name=rule, message=message,
                file=self.file, line=getattr(node, "lineno", None),
            )
        )

    def _in_key_path(self) -> bool:
        """Whether any enclosing function is a content-key/payload producer."""
        return any(
            marker in name.lower()
            for name in self._function_stack
            for marker in _KEY_PATH_MARKERS
        )

    # -- scope tracking ------------------------------------------------
    def _visit_function(self, node) -> None:
        """Track the function-name stack and dispatch per-function rules."""
        self._function_stack.append(node.name)
        if node.name in _VALIDATED_RETURNS:
            self._check_backend_contract(node)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- rule: backend-contract ----------------------------------------
    def _check_backend_contract(self, node) -> None:
        """Require every result a ``run_noise_point(s)`` returns to pass validation."""
        returns = [
            child for child in ast.walk(node)
            if isinstance(child, ast.Return)
        ]
        if not returns:
            self._emit(
                "backend-contract",
                f"{node.name} never returns a result; the contract "
                "requires returning through ensure_noisy_result(...)", node,
            )
            return
        validators = _VALIDATED_RETURNS[node.name]
        for ret in returns:
            value = ret.value
            if node.name == "run_noise_points":
                value = value.elt if isinstance(value, ast.ListComp) else None
            name = _dotted_name(value.func) if isinstance(value, ast.Call) else None
            if name is None or name.split(".")[-1] not in validators:
                self._emit(
                    "backend-contract",
                    f"{node.name} returns a result that does not pass "
                    "ensure_noisy_result(); every backend result must pass "
                    "contract validation", ret,
                )

    # -- rules on calls ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        """Dispatch the call-shaped rules on every resolvable call."""
        dotted = _dotted_name(node.func)
        resolved = self.imports.resolve(dotted) if dotted else None
        if resolved is not None:
            self._check_rng(node, resolved)
            self._check_wallclock(node, resolved)
            self._check_json_dumps(node, resolved)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, resolved: str) -> None:
        """Flag unseeded or process-global random-number sources."""
        if resolved == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                self._emit(
                    "unseeded-rng",
                    "default_rng() without a seed draws OS entropy; pass an "
                    "explicit seed so runs reproduce", node,
                )
            return
        if resolved.startswith("numpy.random."):
            attr = resolved.rsplit(".", 1)[-1]
            if attr in _NUMPY_GLOBAL_RNG:
                self._emit(
                    "unseeded-rng",
                    f"numpy.random.{attr} uses the process-global RNG; use a "
                    "seeded default_rng(seed) stream instead", node,
                )
            return
        if resolved == "random" or resolved.startswith("random."):
            attr = resolved.rsplit(".", 1)[-1]
            if attr in ("Random", "SystemRandom") and (node.args or node.keywords):
                return  # an explicitly seeded instance is fine
            self._emit(
                "unseeded-rng",
                f"stdlib {resolved}() is process-global and unseeded; use a "
                "seeded numpy default_rng(seed) stream", node,
            )

    def _check_wallclock(self, node: ast.Call, resolved: str) -> None:
        """Flag wall-clock reads inside content-key/payload producers."""
        if resolved in _WALLCLOCK_CALLS and self._in_key_path():
            self._emit(
                "wallclock-key-path",
                f"{resolved}() inside {self._function_stack[-1]!r}: wall-clock "
                "values must never feed content keys or payloads", node,
            )

    def _check_json_dumps(self, node: ast.Call, resolved: str) -> None:
        """Require ``sort_keys=True`` on key-path ``json.dumps`` calls."""
        if resolved != "json.dumps" or not self._in_key_path():
            return
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                if isinstance(keyword.value, ast.Constant) and keyword.value.value is True:
                    return
        self._emit(
            "unordered-key-path",
            f"json.dumps without sort_keys=True inside "
            f"{self._function_stack[-1]!r}: dict order must not reach a "
            "content key", node,
        )

    # -- rule: set iteration on the key path ---------------------------
    def visit_For(self, node: ast.For) -> None:
        """Flag iteration over set expressions on the content-key path."""
        if self._in_key_path() and self._is_set_expression(node.iter):
            self._emit(
                "unordered-key-path",
                f"iteration over a set inside {self._function_stack[-1]!r}: "
                "set order varies under hash randomisation; sort first", node,
            )
        self.generic_visit(node)

    @staticmethod
    def _is_set_expression(node: ast.expr) -> bool:
        """Whether ``node`` syntactically builds a set or frozenset."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False


def lint_source_text(text: str, file_label: str) -> list[Finding]:
    """Lint one file's source text; returns the findings."""
    try:
        tree = ast.parse(text, filename=file_label)
    except SyntaxError as error:
        return [
            Finding(
                severity="error", pass_name="parse",
                message=f"cannot parse: {error.msg}",
                file=file_label, line=error.lineno,
            )
        ]
    visitor = _DeterminismVisitor(file_label, _Imports(tree))
    visitor.visit(tree)
    return visitor.findings


def lint_paths(paths: list[Path] | tuple[Path, ...]) -> AnalysisReport:
    """Lint every ``.py`` file under the given files/directories.

    Files are visited in sorted order so reports are stable across
    filesystems.
    """
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[Finding] = []
    for file in files:
        findings.extend(lint_source_text(file.read_text(), str(file)))
    return AnalysisReport(
        subject=", ".join(str(p) for p in paths) or "<empty>",
        passes_run=SOURCE_RULES,
        findings=tuple(findings),
        context=(("files", str(len(files))),),
    )
