"""Put the benchmark modules and the heatjets sources on the import path."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for path in (_HERE.parent / "src", _HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
