"""Command-line front end.

Grammar: qlab <module> <verb> [--key value]... with global flags --out,
--format on every verb, and qlab suite FILE [--out PATH], whose report is
always JSON; --help shows each parameter's choices or range.
Validation failures exit 2, solver failures exit 3, and every error is a single JSON line on stderr.  Output
numbers are capped at 15 significant digits so identical invocations give
byte-identical files.

A run builds the parser of the one verb (or of ``suite``) that argv names,
and the verb's runner imports only the modules it uses; help and typos get
the full tree.  So ``deform table``, ``classical momentum``,
``classical momentum-scaling``, ``classical bracket``, ``level map`` and
``thermo blueshift``, whose runners compute scalar closed forms or scalar
roots, never import numpy.

The ``qlab`` process (``main``) sets OPENBLAS_NUM_THREADS=1 unless the user
has set it: qlab makes only vector BLAS calls, which a second thread
speeds up by a fraction of a millisecond, and OpenBLAS's idle worker pool
cost about 90 ms of CPU per numpy verb.  To let OpenBLAS start a pool,
set OPENBLAS_NUM_THREADS yourself, e.g. to the number of cores.
``run`` (the in-process entry point) leaves the environment alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import experiments
from .errors import ParameterError, QlabError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through exit code 2
        raise ParameterError(message)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser(command: str | None = None) -> _Parser:
    """The full parser tree, or with ``command`` (a COMMANDS key or "suite")
    only the branch that parses that command: the same leaf, so the same
    --help text and the same Namespace."""
    parser = _Parser(prog="qlab",
                     description="numerical laboratory for deformed oscillators")
    top = parser.add_subparsers(dest="command", required=True, metavar="<module>")

    groups: dict[str, argparse._SubParsersAction] = {}
    for key, entry in experiments.COMMANDS.items():
        if command not in (None, key):
            continue
        module, verb = key.split(" ", 1)
        if module not in groups:
            module_parser = top.add_parser(module, help=f"{module} operations")
            groups[module] = module_parser.add_subparsers(
                dest="verb", required=True, metavar="<verb>")
        leaf = groups[module].add_parser(verb, help=entry.help)
        for par in entry.params:  # named here, checked by experiments._coerce
            text = par.help or par.name.replace("_", " ")
            if par.choices or par.bounds:
                text += f"; {par.domain}"
            leaf.add_argument(_flag(par.name), dest=par.name, required=par.required,
                              help=text)
        _add_globals(leaf)

    if command in (None, "suite"):
        suite_parser = top.add_parser("suite", help="run an experiment suite file")
        suite_parser.add_argument("config", help="INI suite file")
        suite_parser.add_argument("--out", help="JSON report file (written atomically)")
    return parser


def _command_named(argv: list[str]) -> str | None:
    """The COMMANDS key or "suite" that argv starts with; None for anything
    else (help, a typo), which the full tree parses and reports."""
    if argv[:1] == ["suite"]:
        return "suite"
    if len(argv) >= 2 and " " not in argv[0]:
        key = f"{argv[0]} {argv[1]}"
        if key in experiments.COMMANDS:
            return key
    return None


def _add_globals(leaf) -> None:
    leaf.add_argument("--out", help="output file (written atomically)")
    leaf.add_argument("--format", choices=("csv", "json"),
                      help="output format (default depends on the verb)")


def _cell_format(value) -> str:
    """The %-format of a column whose cells are of ``value``'s type."""
    if value is None:
        return "%.0s"  # an empty cell
    return "%.15g" if isinstance(value, float) else "%s"


def _render_csv(columns: dict) -> str:
    """A header line and one line per row, each from one %-format string.

    No cell holds a comma, a quote or a line break, so none needs quoting.
    """
    values = columns.values()
    fmt = ",".join(_cell_format(column[0]) for column in values)
    return "\n".join([",".join(columns), *map(fmt.__mod__, zip(*values))]) + "\n"


def _round_floats(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return r if abs(r := float(format(value, ".15g"))) < math.inf else value  # no round to inf
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


def _render_json(payload: dict) -> str:
    return json.dumps(_round_floats(payload), indent=2, allow_nan=False) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".qlab-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise ParameterError(f"cannot write output file: {exc}")


def _emit_error(exc: Exception) -> None:
    """One strict JSON line: the type, the message and the error's public
    fields, a nan or an inf field written as the string "nan" or "inf"."""
    payload = {"error": type(exc).__name__, "message": str(exc)}
    payload.update((k, str(v) if isinstance(v, float) and not math.isfinite(v) else v)
                   for k, v in vars(exc).items() if not k.startswith("_"))
    sys.stderr.write(json.dumps(payload, allow_nan=False) + "\n")


def _dispatch(ns: argparse.Namespace) -> int:
    if ns.command == "suite":
        report, code = experiments.run_suite(ns.config)
        _write_output(_render_json(report), ns.out)
        return code
    key = f"{ns.command} {ns.verb}"
    command = experiments.COMMANDS[key]
    declared = {par.name for par in command.params}
    given = {k: v for k, v in vars(ns).items() if k in declared}
    result = experiments.run_experiment(key, given)
    fmt = ns.format or command.default_format
    if fmt == "csv":
        text = _render_csv(result.columns)
    else:
        text = _render_json(result.summary)
    _write_output(text, ns.out)
    return 0


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(build_parser(_command_named(argv)).parse_args(argv))
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except QlabError as exc:
        _emit_error(exc)
        return 2 if isinstance(exc, ParameterError) else 3


def main() -> None:
    # qlab's only BLAS calls are vector norms and dot products, which a
    # second thread speeds up by about 0.15 ms a call at 10**6 elements on
    # 2 vCPUs, while the worker pool that `import numpy` starts spins for
    # about 90 ms of CPU on a cold start.  cli imports no numpy before this
    # line; a user's value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
