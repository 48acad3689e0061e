"""Self-consistency checks between the documentation and the code.

A reproduction's docs rot silently; these tests keep DESIGN.md,
docs/paper_map.md and the README honest against the actual tree.
"""

import importlib
import os
import re
import shlex

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(*parts):
    with open(os.path.join(ROOT, *parts)) as handle:
        return handle.read()


class TestPaperMap:
    @pytest.fixture(scope="class")
    def paper_map(self):
        return _read("docs", "paper_map.md")

    def test_every_referenced_module_imports(self, paper_map):
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", paper_map))
        assert len(modules) > 15
        for dotted in sorted(modules):
            # strip attribute references like repro.core.lifecycle.GuestOwner
            parts = dotted.split(".")
            for cut in range(len(parts), 1, -1):
                try:
                    importlib.import_module(".".join(parts[:cut]))
                    break
                except ImportError:
                    continue
            else:
                pytest.fail("paper_map references unimportable %s" % dotted)

    def test_every_referenced_test_file_exists(self, paper_map):
        files = set(re.findall(r"`(tests/[\w/]+\.py)", paper_map))
        assert files
        for path in sorted(files):
            assert os.path.exists(os.path.join(ROOT, path)), path

    def test_every_referenced_benchmark_exists(self, paper_map):
        files = set(re.findall(r"`(benchmarks/[\w/]+\.py)", paper_map))
        for path in sorted(files):
            assert os.path.exists(os.path.join(ROOT, path)), path


class TestDesignDoc:
    def test_confirms_the_right_paper(self):
        design = _read("DESIGN.md")
        assert "Comprehensive VM Protection" in design
        assert "HPCA 2018" in design
        assert "10.1109/HPCA.2018.00045" in design

    def test_experiment_index_commands_are_real(self):
        from repro.eval.__main__ import COMMANDS
        design = _read("DESIGN.md")
        for command in re.findall(r"python -m repro\.eval (\S+)`", design):
            assert command in COMMANDS, command

    def test_benchmark_targets_exist(self):
        design = _read("DESIGN.md")
        for path in set(re.findall(r"`(benchmarks/[\w/]+\.py)`", design)):
            assert os.path.exists(os.path.join(ROOT, path)), path


class TestReadme:
    def test_example_table_matches_directory(self):
        readme = _read("README.md")
        listed = set(re.findall(r"\| `(\w+\.py)` \|", readme))
        on_disk = {name for name in os.listdir(os.path.join(ROOT, "examples"))
                   if name.endswith(".py")}
        assert listed == on_disk

    def test_attack_count_matches_registry(self):
        from repro.attacks import ALL_ATTACKS
        readme = _read("README.md")
        match = re.search(r"(\d+) attack programs", readme)
        assert match and int(match.group(1)) == len(ALL_ATTACKS)

    def test_quickstart_modules_exist(self):
        import repro
        assert hasattr(repro, "System")
        assert hasattr(repro, "GuestOwner")


class TestFidelintCommandLines:
    """Every ``python -m repro.analysis ...`` line the docs quote must
    parse, so a removed flag can never be advertised again."""

    @staticmethod
    def _command_lines(text):
        for match in re.finditer(
                r"python -m repro\.analysis(?![\w.])([^`\n]*)", text):
            tokens = shlex.split(match.group(1), comments=True)
            if "|" in tokens:
                tokens = tokens[:tokens.index("|")]
            yield match.group(0), tokens

    @pytest.mark.parametrize("doc", ["README.md", "docs/static_analysis.md"])
    def test_quoted_command_lines_parse(self, doc):
        from repro.analysis.cli import build_parser
        commands = list(self._command_lines(_read(*doc.split("/"))))
        assert commands, "no fidelint command lines found in %s" % doc
        for line, tokens in commands:
            try:
                build_parser().parse_args(tokens)
            except SystemExit:
                pytest.fail("%s quotes an invalid command line: %s"
                            % (doc, line))


class TestExamplesAreImportable:
    def test_examples_compile(self):
        import py_compile
        examples = os.path.join(ROOT, "examples")
        for name in os.listdir(examples):
            if name.endswith(".py"):
                py_compile.compile(os.path.join(examples, name),
                                   doraise=True)
