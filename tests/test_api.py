"""Package surface: the public names and the documented exit codes."""

import re

import coneasym
from coneasym import cli


def test_public_names_unique_and_resolvable():
    assert len(coneasym.__all__) == len(set(coneasym.__all__))
    for name in coneasym.__all__:
        assert getattr(coneasym, name) is not None, name


def test_every_exit_code_is_documented():
    epilog = cli.build_parser().epilog
    assert epilog == cli._EXIT_DOC
    documented = {int(code) for code in re.findall(r"^  (\d+) ", epilog, re.M)}
    assert documented == set(cli.EXIT_CODES.values()) | {0}
