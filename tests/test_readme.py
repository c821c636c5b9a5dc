"""The README's examples, run as written."""

import ast
import json
import re
import shlex
from pathlib import Path

from levispherical.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def code_blocks(section, lang):
    """The ```lang blocks under the README heading `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


def cli_examples(block):
    """(argv, printed lines) for each `$ levispherical ...` of a shell block."""
    examples = []
    lines = iter(block.splitlines())
    for line in lines:
        if not line.startswith("$ levispherical "):
            continue
        command = line
        while command.endswith("\\"):
            command = command[:-1] + next(lines)
        printed = []
        for line in lines:
            if not line:
                break
            printed.append(line)
        examples.append((shlex.split(command)[2:], printed))
    return examples


def test_readme_cli_examples(capsys):
    examples = cli_examples(code_blocks("CLI", "sh")[0])
    assert len(examples) == 3
    for argv, printed in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "--pretty" in argv:
            assert out == "\n".join(printed) + "\n"
        else:
            # The README wraps long JSON lines.
            assert json.loads(out) == json.loads(" ".join(printed))


def test_readme_library_example():
    # Every statement runs; an expression whose comment starts with its
    # repr documents a result, and the block documents three.
    source = code_blocks("Library quick start", "python")[0]
    lines = source.splitlines()
    namespace = {}
    documented = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        _, hash_mark, comment = lines[stmt.end_lineno - 1].partition("#")
        if not hash_mark and stmt.end_lineno < len(lines):
            _, hash_mark, comment = lines[stmt.end_lineno].partition("#")
        if comment.strip().startswith(repr(value)):
            documented += 1
    assert documented == 3
