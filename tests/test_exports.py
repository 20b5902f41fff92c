"""Every ``repro`` package's ``__all__`` names something that exists.

Deleting a public name must also delete its export; a stale entry makes
``from repro.x import *`` raise.  Standard library only.
"""

import importlib
import pkgutil
import unittest

import repro


class TestExports(unittest.TestCase):
    def test_every_exported_name_resolves(self):
        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg]
        for package in packages:
            for name in getattr(package, "__all__", ()):
                with self.subTest(package=package.__name__, name=name):
                    self.assertTrue(hasattr(package, name))
        walked = {package.__name__ for package in packages}
        self.assertTrue({"repro.fx", "repro.baselines", "repro.pipeline",
                         "repro.slapo.tuner"} <= walked)


if __name__ == "__main__":
    unittest.main()
