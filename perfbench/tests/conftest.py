"""Put the checkout's src/ and the benchmark modules on the import path."""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
for relative in (os.path.join("..", "..", "src"), ".."):
    path = os.path.normpath(os.path.join(_HERE, relative))
    if path not in sys.path:
        sys.path.insert(0, path)
