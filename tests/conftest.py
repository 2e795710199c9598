"""Test-session settings.

With the ``CI`` environment variable set (continuous-integration runners set
it), hypothesis runs derandomized under the ``ci`` profile: its examples
depend only on the test, so a property-test failure in CI reproduces locally
with ``CI=1 python -m pytest``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
