import ast
import pathlib

import qarrival


def test_every_exported_name_resolves():
    missing = [name for name in qarrival.__all__ if not hasattr(qarrival, name)]
    assert not missing


def test_every_imported_name_is_exported():
    tree = ast.parse(pathlib.Path(qarrival.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                if node.module != "__future__"
                for alias in node.names}
    assert imported
    assert sorted(imported - set(qarrival.__all__)) == []
    assert len(set(qarrival.__all__)) == len(qarrival.__all__)
