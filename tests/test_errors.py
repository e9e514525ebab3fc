"""The failure contract: every error a user can cause is a PrivmapfError.

The CLI and the bench sweep catch that one base, so an exception class that
is not on it would reach the user as a traceback. The three listed here
are not: each signals a bug, and a traceback is the right output for a bug.
"""

import importlib
import inspect
import pkgutil

import privmapf
from privmapf.grid import PrivmapfError

BUG_SIGNALS = {"MetricsError", "DispatchVerificationError", "BroadcastAuditError"}


def _error_classes():
    for info in pkgutil.iter_modules(privmapf.__path__, "privmapf."):
        module = importlib.import_module(info.name)
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == info.name:
                yield name, obj


def test_every_input_error_is_a_privmapf_error():
    classes = dict(_error_classes())
    assert BUG_SIGNALS <= set(classes)
    assert len(classes) > len(BUG_SIGNALS)
    for name, cls in classes.items():
        assert issubclass(cls, PrivmapfError) != (name in BUG_SIGNALS), name
