"""The README's command lines and mini-language examples still parse."""

import re
import shlex
from pathlib import Path

import pytest

from pllab import cli
from pllab.distributions import parse_dist
from pllab.environments import parse_environment
from pllab.policies import parse_policy

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    return README.split(f"{title}\n", 1)[1].split("\n##", 1)[0]


def _command_lines():
    block = _section("## Command line").split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("pllab ")]


def _examples(bullet):
    """The backquoted examples of one Mini-languages bullet."""
    text = re.search(rf"^\* {bullet}:(.*?)(?=^\* |^$|\Z)", _section("### Mini-languages"), re.M | re.S).group(1)
    return re.findall(r"`([^`]+)`", text)


DISTS = _examples("distributions")


def test_sections_are_found():
    assert len(_command_lines()) >= 8 and len(DISTS) >= 8
    assert _examples("policies") and _examples("environments")


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_parses(line):
    # a shell word split: an unquoted ( ) ; < > | & comes out as a token of its own
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    words = list(lexer)
    assert not [w for w in words if set(w) <= set("();<>|&")]
    cli.build_parser().parse_args(words[1:])


@pytest.mark.parametrize("spec", DISTS)
def test_distribution_example_parses(spec):
    parse_dist(spec)


def test_policy_examples_parse():
    for form in _examples("policies"):
        # ``[...]`` is optional: take it both ways, with N = 3, and every distribution example for <dist>
        for variant in {re.sub(r"\[(.*?)\]", "", form), re.sub(r"\[(.*?)\]", r"\1", form).replace("=N", "=3")}:
            for dist in DISTS if "<dist>" in variant else [None]:
                parse_policy(variant.replace("<dist>", dist) if dist else variant)


def test_environment_examples_parse(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.csv").write_text("0.1,0.2\n0.3,0.4\n")
    for spec in _examples("environments"):
        parse_environment(spec)
