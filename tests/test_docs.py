"""The docs stay healthy: links resolve, public modules render help,
backticked ``repro.…`` names resolve, documented CLI flag defaults
match the parser, and the storage configuration table matches
``StorageConfig``.

Thin wrapper over scripts/check_docs.py so the same checks gate both
CI's docs job and a plain local pytest run.
"""

import os
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)

import check_docs  # noqa: E402


def test_markdown_links_resolve():
    assert check_docs.check_links() == []


def test_public_modules_render_pydoc():
    assert check_docs.check_pydoc() == []


def test_dotted_names_resolve():
    assert check_docs.check_dotted_names() == []


def test_documented_flag_defaults_match_the_parser():
    assert check_docs.check_flag_defaults() == []


def test_documented_config_defaults_match_storage_config():
    assert check_docs.check_config_defaults() == []
