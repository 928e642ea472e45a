"""Modules imported on first use."""

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``: itself if it is already imported, else a stub in
    ``sys.modules`` whose first attribute read runs the import and turns it
    into the plain module (the ``LazyLoader`` recipe of the importlib
    documentation), so later reads cost what a module's always do.

    That first read takes no lock, and the stub is already a plain module
    while the import runs: a second thread reading it then may see it half
    built.  A module that hands work to threads imports the module with an
    import statement instead, which reads the stub and so loads it on the
    importing thread (``tvlab`` does).
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:  # not installed: fail at import, as an import statement would
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
