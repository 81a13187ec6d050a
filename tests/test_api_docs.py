"""``docs/api.md`` must be exactly what ``scripts/generate_api_docs.py``
writes from the current sources."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _generator():
    spec = importlib.util.spec_from_file_location(
        "generate_api_docs", ROOT / "scripts" / "generate_api_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_api_reference_is_current(tmp_path):
    output = tmp_path / "api.md"
    _generator().main(str(output))
    committed = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    assert output.read_text(encoding="utf-8") == committed, (
        "docs/api.md is stale; regenerate it with "
        "`python scripts/generate_api_docs.py`")


def test_constants_render_without_addresses():
    render = _generator().render_value

    class Plain:
        pass

    assert render(Plain()) == "<Plain instance>"
    assert render((Plain(),)) == "(<Plain instance>,)"
    assert render([Plain(), 2]) == "[<Plain instance>, 2]"
    assert render((1, "a")) == "(1, 'a')"
    assert render({"k": 1}) == "{'k': 1}"
    assert render({"mod": pathlib}) == "{'mod': <module 'pathlib'>}"
